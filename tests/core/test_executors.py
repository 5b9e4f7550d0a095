"""Tests for the pluggable executors, centred on the work queue.

The lease protocol is driven with an injected fake clock so expiry is
deterministic; "workers" here are plain threads calling the queue
directly (the HTTP transport on top is covered in ``tests/service``).
The crash-resume tests pin the tentpole guarantee: a dead worker or a
killed sweep never loses completed work and never recomputes it.
"""

import dataclasses
import threading

import pytest

from repro.core.cache import ResultCache
from repro.core.config import ExperimentConfig
from repro.core.executors import (
    ChunkQueue,
    InProcessExecutor,
    WorkQueueExecutor,
)
from repro.core.orchestrator import Orchestrator, TaskError


def tiny(**kw):
    defaults = dict(
        n_clusters=4, nodes_per_cluster=16, duration=300.0,
        offered_load=2.0, drain=True, seed=8,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class FakeResult:
    def __init__(self, scheme, replication):
        self.scheme = scheme
        self.replication = replication

    def __eq__(self, other):
        return (self.scheme, self.replication) == (
            other.scheme, other.replication
        )

    def __hash__(self):
        return hash((self.scheme, self.replication))


def fake_runner(config, replication):
    return FakeResult(config.scheme, replication)


def strip_wall(result):
    d = dataclasses.asdict(result)
    d.pop("wall_time_s")
    d.pop("phase_timings")
    return d


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def make_queue(n_chunks=3, **kw):
    chunks = {cid: [(0, cid)] for cid in range(n_chunks)}
    kw.setdefault("lease_ttl_s", 10.0)
    kw.setdefault("clock", FakeClock())
    return ChunkQueue(chunks, **kw), kw["clock"]


class TestChunkQueue:
    def test_leases_grant_lowest_open_chunk_first(self):
        queue, _ = make_queue(2)
        a = queue.lease("w1")
        b = queue.lease("w2")
        assert (a.chunk_id, b.chunk_id) == (0, 1)
        assert a.token != b.token
        assert queue.lease("w3") is None, "nothing left to offer"

    def test_heartbeat_extends_the_deadline(self):
        queue, clock = make_queue(1, lease_ttl_s=10.0)
        lease = queue.lease("w1")
        clock.advance(8.0)
        assert queue.heartbeat(lease.chunk_id, lease.token) is True
        clock.advance(8.0)  # past the original deadline, not the renewed
        assert queue.expire() == []
        clock.advance(8.0)
        assert queue.expire() == [lease.chunk_id]

    def test_expiry_requeues_for_another_worker(self):
        queue, clock = make_queue(1, lease_ttl_s=5.0)
        first = queue.lease("w1")
        clock.advance(6.0)
        second = queue.lease("w2")  # lease() expires internally first
        assert second is not None
        assert second.chunk_id == first.chunk_id
        assert second.attempt == 2
        assert queue.heartbeat(first.chunk_id, first.token) is False

    def test_attempt_budget_exhaustion_marks_failed(self):
        queue, clock = make_queue(1, lease_ttl_s=5.0, max_attempts=2)
        for _ in range(2):
            assert queue.lease("w") is not None
            clock.advance(6.0)
            queue.expire()
        assert queue.lease("w") is None
        cid, task, attempts = queue.first_failed()
        assert (cid, task, attempts) == (0, (0, 0), 2)
        assert queue.outstanding() == 1, "failed chunks stay outstanding"

    def test_stale_completion_still_buffers_results(self):
        """A slow worker racing its own expiry never wastes its work."""
        queue, clock = make_queue(1, lease_ttl_s=5.0)
        slow = queue.lease("slow")
        clock.advance(6.0)
        fast = queue.lease("fast")  # requeued to a second worker
        results = [(0, 0, FakeResult("NONE", 0))]
        assert queue.complete(slow.chunk_id, slow.token, results) is False
        assert queue.outstanding() == 0
        assert queue.drain_completed() == [(0, results)]
        # The fast worker's duplicate arrives after: not re-buffered.
        assert queue.complete(fast.chunk_id, fast.token, results) is False
        assert queue.drain_completed() == []

    def test_remote_failure_consumes_an_attempt(self):
        queue, _ = make_queue(1, max_attempts=2)
        lease = queue.lease("w")
        assert queue.fail(lease.chunk_id, lease.token, "boom") is True
        retry = queue.lease("w")
        assert retry.attempt == 2
        queue.fail(retry.chunk_id, retry.token, "boom again")
        assert queue.first_failed() is not None

    def test_snapshot_counts(self):
        queue, _ = make_queue(3)
        lease = queue.lease("w")
        queue.complete(lease.chunk_id, lease.token, [])
        assert queue.snapshot() == {
            "chunks": 3, "open": 2, "leased": 0, "done": 1, "failed": 0,
        }


def drain_queue_in_thread(executor, runner, configs, worker_id="w"):
    """Background 'worker': polls the executor's queue until it drains."""

    def loop():
        while True:
            queue = executor.queue
            if queue is None:
                return
            lease = queue.lease(worker_id)
            if lease is None:
                if queue.outstanding() == 0:
                    return
                continue
            results = [
                (ci, rep, runner(configs[ci], rep))
                for ci, rep in lease.tasks
            ]
            queue.complete(lease.chunk_id, lease.token, results)

    thread = threading.Thread(target=loop, daemon=True)
    return thread


class TestInProcessStreamMemo:
    """Workload streams are generated once per (seed, replication)."""

    def count_generations(self, monkeypatch):
        from repro.core import experiment

        calls = []
        real = experiment.generate_platform_streams

        def counting(factory, replication, *args, **kwargs):
            calls.append(replication)
            return real(factory, replication, *args, **kwargs)

        monkeypatch.setattr(
            experiment, "generate_platform_streams", counting
        )
        experiment._cached_streams.cache_clear()
        return calls

    def test_schemes_of_one_grid_share_streams(self, monkeypatch):
        calls = self.count_generations(monkeypatch)
        configs = [tiny(seed=31), tiny(seed=31, scheme="R2"),
                   tiny(seed=31, scheme="ALL")]
        Orchestrator(configs, 2).execute(InProcessExecutor())
        assert sorted(calls) == [0, 1]

    def test_later_grids_over_one_workload_reuse_streams(self, monkeypatch):
        calls = self.count_generations(monkeypatch)
        for algorithm in ("easy", "cbf", "fcfs"):
            configs = [tiny(seed=32, algorithm=algorithm),
                       tiny(seed=32, algorithm=algorithm, scheme="R2")]
            Orchestrator(configs, 2).execute(InProcessExecutor())
        assert sorted(calls) == [0, 1]


def calibration_configs():
    """One config per calibration kind: Lublin on a homogeneous and on
    a heterogeneous platform (node counts per replication), and a
    service regime scaled by the mean node count."""
    return [tiny(seed=41), tiny(seed=41, heterogeneous=True),
            tiny(seed=41, service_regime="bimodal")]


def forbid_calibration(monkeypatch):
    """Make every load-calibration Monte-Carlo raise."""
    from repro.workload import lublin, regimes

    def fitted(*args, **kwargs):
        raise AssertionError("calibration Monte-Carlo ran")

    monkeypatch.setattr(lublin, "empirical_mean_area", fitted)
    monkeypatch.setattr(regimes, "empirical_mean_nodes", fitted)


class TestShippedCalibrations:
    """Pool workers run on the parent's calibrations, never their own."""

    def test_worker_runs_on_installed_table(self, monkeypatch):
        from repro.core.executors import pool
        from repro.core.experiment import (
            CALIBRATIONS,
            calibration_table,
            run_single,
        )
        from repro.obs import log

        configs = calibration_configs()
        tasks = [(ci, rep) for ci in range(len(configs)) for rep in (0, 1)]
        serial = [strip_wall(run_single(configs[ci], rep))
                  for ci, rep in tasks]
        CALIBRATIONS.clear()
        table = calibration_table((configs[ci], rep) for ci, rep in tasks)
        assert {key.kind for key in table} == {"lublin", "nodes"}
        assert len(CALIBRATIONS) == len(table)
        CALIBRATIONS.clear()  # a fresh worker process: nothing memoised

        for name in ("_WORKER_CONFIGS", "_WORKER_RUNNER"):
            # restored after the test: _init_worker installs both
            monkeypatch.setattr(pool, name, getattr(pool, name))
        monkeypatch.setattr(log, "setup_worker_logging", lambda: None)
        pool._init_worker(tuple(configs), run_single, table)
        forbid_calibration(monkeypatch)
        out = pool._run_chunk(tasks)
        assert [(ci, rep) for ci, rep, _ in out] == tasks
        assert [strip_wall(r) for _, _, r in out] == serial

    def test_warm_rerun_calibrates_nothing(self, monkeypatch, tmp_path):
        from repro.core.experiment import CALIBRATIONS
        from repro.core.orchestrator import run_grid

        configs = calibration_configs()
        cold = run_grid(configs, 2, n_workers=2,
                        cache=ResultCache(tmp_path))
        CALIBRATIONS.clear()
        forbid_calibration(monkeypatch)
        warm = run_grid(configs, 2, n_workers=2,
                        cache=ResultCache(tmp_path))
        assert len(CALIBRATIONS) == 0
        assert warm == cold

    def test_pool_grid_equals_serial(self, monkeypatch):
        from repro.core.executors import pool
        from repro.core.experiment import CALIBRATIONS
        from repro.core.orchestrator import run_grid

        configs = calibration_configs()
        serial = run_grid(configs, 2, n_workers=1)
        fit = pool.calibration_table

        def shipped_only(tasks):
            # Forked workers inherit nothing from the memo, as under
            # spawn: only the initializer's table can reach them.
            table = fit(tasks)
            CALIBRATIONS.clear()
            forbid_calibration(monkeypatch)
            return table

        monkeypatch.setattr(pool, "calibration_table", shipped_only)
        pooled = run_grid(configs, 2, n_workers=2)
        assert [[strip_wall(r) for r in per] for per in pooled] == [
            [strip_wall(r) for r in per] for per in serial
        ]


class TestWorkQueueExecutor:
    def test_grid_matches_inprocess(self):
        configs = [tiny(), tiny(scheme="R2")]
        serial = Orchestrator(
            configs, 2, runner=fake_runner,
        ).execute(InProcessExecutor())

        executor = WorkQueueExecutor(poll_interval_s=0.01)
        orch = Orchestrator(configs, 2, runner=fake_runner, chunksize=1)
        orch.prepare()
        thread = drain_queue_in_thread(executor, fake_runner, orch.unique)
        # Start the worker only once the queue is published.
        executor._on_queue_ready = lambda queue: thread.start()
        queued = orch.execute(executor)
        thread.join(timeout=10.0)
        assert queued == serial

    def test_exhausted_chunk_raises_task_error(self):
        clock = FakeClock()
        executor = WorkQueueExecutor(
            lease_ttl_s=5.0, max_attempts=2, poll_interval_s=0.0,
            clock=clock,
        )
        orch = Orchestrator([tiny()], 1, chunksize=1)

        def doomed_worker(queue):
            # Lease and abandon: each poll advances the clock past the
            # TTL, so the lease expires every attempt.
            def loop():
                while executor.queue is not None:
                    lease = queue.lease("doomed")
                    if lease is None and queue.outstanding() == 0:
                        return
                    clock.advance(6.0)

            threading.Thread(target=loop, daemon=True).start()

        executor._on_queue_ready = doomed_worker
        with pytest.raises(TaskError, match="lease attempt"):
            orch.execute(executor)
        assert executor.queue is None, "queue unpublished on exit"


class TestCrashResume:
    """The tentpole guarantee: interrupted sweeps resume, never redo."""

    def test_dead_worker_chunk_is_recomputed_elsewhere(self):
        clock = FakeClock()
        executor = WorkQueueExecutor(
            lease_ttl_s=5.0, max_attempts=3, poll_interval_s=0.01,
            clock=clock,
        )
        orch = Orchestrator([tiny()], 3, runner=fake_runner, chunksize=1)
        orch.prepare()
        computed = []

        def counting_runner(config, replication):
            computed.append(replication)
            return fake_runner(config, replication)

        def workers(queue):
            def loop():
                died = False
                while executor.queue is not None:
                    lease = queue.lease("w")
                    if lease is None:
                        if queue.outstanding() == 0:
                            return
                        continue
                    if not died:
                        # First lease: the worker "dies" mid-chunk.
                        died = True
                        clock.advance(6.0)
                        continue
                    results = [
                        (ci, rep, counting_runner(orch.unique[ci], rep))
                        for ci, rep in lease.tasks
                    ]
                    queue.complete(lease.chunk_id, lease.token, results)

            threading.Thread(target=loop, daemon=True).start()

        executor._on_queue_ready = workers
        [results] = orch.execute(executor)
        assert [r.replication for r in results] == [0, 1, 2]
        assert sorted(computed) == [0, 1, 2], (
            "the abandoned chunk was recomputed exactly once"
        )

    def test_killed_sweep_resumes_from_disk_cache(self, tmp_path):
        """Kill the executor mid-sweep; a rebuilt orchestrator over the
        same disk cache re-runs *only* the incomplete chunks and yields
        a byte-identical grid.  Uses the real ``run_single`` — the disk
        cache only trusts genuine ExperimentResult payloads."""
        from repro.core.experiment import run_single

        configs = [tiny(), tiny(scheme="R2")]
        reference = Orchestrator(configs, 2).execute(InProcessExecutor())

        cache = ResultCache(tmp_path / "cache")
        first_calls = []

        def crashing_runner(config, replication):
            if len(first_calls) == 2:
                raise KeyboardInterrupt("sweep killed mid-run")
            first_calls.append((config.scheme, replication))
            return run_single(config, replication)

        crashed = Orchestrator(
            configs, 2, cache=cache, runner=crashing_runner, chunksize=1,
        )
        with pytest.raises(KeyboardInterrupt):
            crashed.execute(InProcessExecutor())
        assert len(first_calls) == 2, "two tasks completed before the kill"

        # Fresh process: new orchestrator, new cache handle, same disk.
        resumed_cache = ResultCache(tmp_path / "cache")
        resumed_calls = []

        def counting_runner(config, replication):
            resumed_calls.append((config.scheme, replication))
            return run_single(config, replication)

        resumed = Orchestrator(
            configs, 2, cache=resumed_cache, runner=counting_runner,
            chunksize=1,
        )
        resumed.prepare()
        pending = sum(
            len(c) for c in resumed.pending_chunks().values()
        )
        assert pending == 2, "completed tasks resolved from the cache"
        grids = resumed.execute(InProcessExecutor())
        assert len(resumed_calls) == 2, "only incomplete chunks re-ran"
        assert set(resumed_calls).isdisjoint(first_calls)
        assert [
            [strip_wall(r) for r in per_config] for per_config in grids
        ] == [
            [strip_wall(r) for r in per_config] for per_config in reference
        ]

    def test_resume_through_workqueue_matches_serial(self, tmp_path):
        """Same resume invariant when the second leg runs on the queue."""
        from repro.core.experiment import run_single

        configs = [tiny()]
        reference = Orchestrator(configs, 4).execute(InProcessExecutor())

        cache = ResultCache(tmp_path / "cache")
        half = Orchestrator(configs, 2, cache=cache)
        half.execute(InProcessExecutor())  # reps 0..1 land in the cache

        executor = WorkQueueExecutor(poll_interval_s=0.01)
        resumed = Orchestrator(
            configs, 4, cache=ResultCache(tmp_path / "cache"),
            chunksize=1,
        )
        resumed.prepare()
        assert sum(
            len(c) for c in resumed.pending_chunks().values()
        ) == 2
        thread = drain_queue_in_thread(
            executor, run_single, resumed.unique,
        )
        executor._on_queue_ready = lambda queue: thread.start()
        grids = resumed.execute(executor)
        thread.join(timeout=10.0)
        assert [strip_wall(r) for r in grids[0]] == [
            strip_wall(r) for r in reference[0]
        ]
