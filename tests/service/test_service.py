"""End-to-end sweep-service tests over real loopback HTTP.

Each test stands up a :class:`SweepService` on a free port, drives it
with the real :class:`ServiceClient`/:class:`QueueWorker`, and holds
the tentpole acceptance bar: results fetched from the service are
byte-identical to an in-process ``run_grid`` of the same configs, and
a restarted server resumes incomplete jobs from the shared disk cache
instead of recomputing finished work.
"""

import threading

import pytest

from repro.core.cache import ResultCache
from repro.core.config import ExperimentConfig
from repro.core.orchestrator import Orchestrator
from repro.core.executors import InProcessExecutor
from repro.core.orchestrator import run_grid
from repro.obs.manifest import RunJournal
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import JobSpec, JobStore, canonical_grid_json
from repro.service.server import SweepService
from repro.service.worker import QueueWorker


def tiny(**kw):
    defaults = dict(
        n_clusters=2, nodes_per_cluster=8, duration=120.0,
        offered_load=2.0, drain=True, seed=8,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def spec(**kw):
    defaults = dict(configs=(tiny(), tiny(scheme="R2")), n_replications=2)
    defaults.update(kw)
    return JobSpec(**defaults)


def reference_json(job_spec):
    grids = run_grid(
        list(job_spec.configs),
        job_spec.n_replications,
        first_replication=job_spec.first_replication,
    )
    return (canonical_grid_json(grids) + "\n").encode("utf-8")


@pytest.fixture
def service(tmp_path):
    svc = SweepService(tmp_path / "state", port=0)
    port = svc.start()
    client = ServiceClient(f"http://127.0.0.1:{port}")
    try:
        yield svc, client
    finally:
        svc.wait_idle(timeout=30.0)
        svc.stop()


def run_worker(client_url, **kw):
    worker = QueueWorker(client_url, poll_interval_s=0.05)
    kw.setdefault("max_idle_polls", 100)
    thread = threading.Thread(
        target=worker.run, kwargs=kw, daemon=True,
    )
    thread.start()
    return worker, thread


class TestJobLifecycle:
    def test_health(self, service):
        _, client = service
        assert client.health()["ok"] is True

    def test_inprocess_job_end_to_end(self, service):
        svc, client = service
        job_spec = spec()
        job_id = client.submit(job_spec.to_dict())
        assert job_id == "job-0001"
        status = client.wait(job_id, timeout=120.0)
        assert status["state"] == "done"
        assert client.results_bytes(job_id) == reference_json(job_spec)
        # The manifest and journal landed next to the results.
        jdir = svc.store.job_dir(job_id)
        assert (jdir / "manifest.json").is_file()
        events = [
            e["event"] for e in RunJournal(jdir / "journal.jsonl").entries()
        ]
        assert events[0] == "prepared" and events[-1] == "done"

    def test_workqueue_job_with_http_worker(self, service):
        svc, client = service
        job_spec = spec(executor="workqueue", chunksize=1, lease_ttl_s=30.0)
        job_id = client.submit(job_spec.to_dict())
        url = f"http://127.0.0.1:{svc.port}"
        _, thread = run_worker(url)
        status = client.wait(job_id, timeout=120.0)
        thread.join(timeout=30.0)
        assert status["state"] == "done"
        assert client.results_bytes(job_id) == reference_json(job_spec)

    def test_second_submission_is_fully_cached(self, service):
        """Jobs share the state dir's disk cache: a repeat submission
        completes without recomputing anything."""
        svc, client = service
        job_spec = spec()
        client.wait(client.submit(job_spec.to_dict()), timeout=120.0)
        hits_before = svc.store.cache().stats.hits
        repeat = client.submit(job_spec.to_dict())
        assert client.wait(repeat, timeout=120.0)["state"] == "done"
        assert svc.store.cache().stats.hits >= hits_before + 4
        assert client.results_bytes(repeat) == reference_json(job_spec)

    def test_bad_spec_is_client_error(self, service):
        _, client = service
        with pytest.raises(ServiceError) as err:
            client.submit({"configs": [], "n_replications": 1})
        assert err.value.status == 400

    def test_unknown_job_is_404(self, service):
        _, client = service
        with pytest.raises(ServiceError) as err:
            client.status("job-4242")
        assert err.value.status == 404

    def test_cancel_workqueue_job_without_workers(self, service):
        _, client = service
        job_id = client.submit(
            spec(executor="workqueue", lease_ttl_s=60.0).to_dict()
        )
        # No workers exist, so the job parks on the queue until cancel.
        client.cancel(job_id)
        status = client.wait(job_id, timeout=60.0)
        assert status["state"] == "cancelled"
        with pytest.raises(ServiceError) as err:
            client.results_bytes(job_id)
        assert err.value.status == 404


class TestResume:
    def test_restart_resumes_pending_job(self, tmp_path):
        """A job created by a server that died before executing it is
        picked up and completed by the next server over the state dir."""
        state = tmp_path / "state"
        job_spec = spec()
        dead_store = JobStore(state)
        job_id = dead_store.create_job(job_spec)  # persisted, never run

        svc = SweepService(state, port=0)
        try:
            assert svc.start() > 0
            client = ServiceClient(f"http://127.0.0.1:{svc.port}")
            status = client.wait(job_id, timeout=120.0)
            assert status["state"] == "done"
            assert client.results_bytes(job_id) == reference_json(job_spec)
        finally:
            svc.wait_idle(timeout=30.0)
            svc.stop()

    def test_restart_reuses_partial_progress(self, tmp_path):
        """Work completed before the 'crash' resolves from the shared
        disk cache — the resumed job only computes what is missing."""
        state = tmp_path / "state"
        job_spec = spec()

        # Simulate a first server that computed half the grid (one
        # config, both reps) before being killed: its completions are
        # in the shared cache, the job's status is still "running".
        half = Orchestrator(
            [job_spec.configs[0]], 2, cache=ResultCache(state / "cache"),
        )
        half.execute(InProcessExecutor())
        dead_store = JobStore(state)
        job_id = dead_store.create_job(job_spec)
        dead_store.write_status(job_id, "running", executor="inprocess")

        svc = SweepService(state, port=0)
        try:
            svc.start()  # resume_incomplete() re-launches the job
            client = ServiceClient(f"http://127.0.0.1:{svc.port}")
            status = client.wait(job_id, timeout=120.0)
            assert status["state"] == "done"
            assert client.results_bytes(job_id) == reference_json(job_spec)
            journal = RunJournal(
                svc.store.job_dir(job_id) / "journal.jsonl"
            )
            prepared = [
                e for e in journal.entries() if e["event"] == "prepared"
            ][-1]
            assert prepared["from_cache"] == 2, (
                "the crashed server's completed tasks were not recomputed"
            )
            assert prepared["pending"] == 2
        finally:
            svc.wait_idle(timeout=30.0)
            svc.stop()

    def test_dead_worker_lease_expires_and_job_completes(self, tmp_path):
        """A worker that leases a chunk and dies does not wedge the job:
        the lease expires and another worker recomputes the chunk."""
        state = tmp_path / "state"
        svc = SweepService(state, port=0)
        try:
            svc.start()
            url = f"http://127.0.0.1:{svc.port}"
            client = ServiceClient(url)
            job_spec = spec(
                configs=(tiny(),), n_replications=2,
                executor="workqueue", chunksize=1,
                lease_ttl_s=1.0, max_attempts=5,
            )
            job_id = client.submit(job_spec.to_dict())

            # The "dead" worker: leases one chunk, then vanishes
            # without heartbeat, completion or failure report.
            dead = ServiceClient(url)
            granted = None
            while granted is None:
                granted = dead.lease("doomed-worker")
            assert granted["lease"]["attempt"] == 1

            # A live worker drains everything the dead one abandoned.
            _, thread = run_worker(url, max_idle_polls=200)
            status = client.wait(job_id, timeout=120.0)
            thread.join(timeout=30.0)
            assert status["state"] == "done"
            assert client.results_bytes(job_id) == reference_json(job_spec)
        finally:
            svc.wait_idle(timeout=30.0)
            svc.stop()
