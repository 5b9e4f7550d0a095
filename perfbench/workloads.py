"""The four benchmark workloads, driven through the program's public API.

Every workload repeats a *unit* of work until its timed share of the
run reaches ``--seconds`` (and at least ``min_units`` units ran).  Unit
``k`` of seed ``s`` always simulates the same inputs, derived from
``(s, k)``, so any unit can be checked again on its own.

=============  ============================================================
workload       unit
=============  ============================================================
paper_sweep    the ``repro bench`` grid (NONE + R2 R3 R4 HALF ALL, EASY,
               5x32 nodes, 900 s window, load 2.0, drained, 4
               replications), serial, no cache
cbf_backlog    NONE + ALL under CBF, 5x32 nodes, 1800 s window, load 2.0,
               drained, 1 replication, serial, no cache
pool_sweep     the paper_sweep grid on a process pool (one worker per
               CPU, at most 2) into a fresh disk cache, then a warm
               rerun of the same grid served from that disk cache alone
served_sweep   one closed-loop client job (NONE + R2, 3x16 nodes, 300 s
               window, 2 replications, work-queue executor, chunk size 1)
               through an in-process SweepService and one QueueWorker
               thread; after the cold jobs, every spec is submitted again
               and must come back from the cache byte-identical
=============  ============================================================

paper_sweep and pool_sweep derive unit seeds the same way, so unit
``k`` of both simulates the same grid and has the same digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from checks import digest_rows, grid_failures, result_row
from hostspeed import HostSpeed

#: the seed whose unit digests are pinned in ``pinned.json``
DEFAULT_SEED = 20060619

SCHEMES = ("R2", "R3", "R4", "HALF", "ALL")
GRID_REPLICATIONS = 4
SERVED_REPLICATIONS = 2
#: benchmark parameters of the served loop, kept far below job compute time
CLIENT_POLL_S = 0.01
WORKER_POLL_S = 0.01
#: share of the served run spent on cold jobs; the cached pass follows
SERVED_COLD_SHARE = 0.8
#: served jobs needed so p90 has ten samples beyond it
SERVED_MIN_JOBS = 100
#: served jobs between two host speed samples
SPEED_EVERY_JOBS = 10
JOB_TIMEOUT_S = 60.0

#: units per second of ``--seconds`` for a fixed-work (traced) run; fixed
#: so per-layer counts compare exactly across commits and hosts
TRACE_UNITS_PER_S = {
    "paper_sweep": 0.2,
    "cbf_backlog": 0.2,
    "pool_sweep": 0.2,
    "served_sweep": 1.0,
}

WORKLOADS = ("paper_sweep", "cbf_backlog", "pool_sweep", "served_sweep")

#: fixed benchmark parameters, recorded with every run
PARAMETERS = {
    "default_seed": DEFAULT_SEED,
    "grid_replications": GRID_REPLICATIONS,
    "served_replications": SERVED_REPLICATIONS,
    "client_poll_s": CLIENT_POLL_S,
    "worker_poll_s": WORKER_POLL_S,
    "served_cold_share": SERVED_COLD_SHARE,
    "served_min_jobs": SERVED_MIN_JOBS,
    "speed_every_jobs": SPEED_EVERY_JOBS,
    "trace_units_per_s": TRACE_UNITS_PER_S,
}


def unit_seed(seed: int, k: int, space: str = "grid") -> int:
    """Config seed of unit ``k``: a fixed function of the run seed."""
    text = f"{space}:{seed}:{k}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big")


def worker_count() -> int:
    """Pool workers: one per available CPU, at most two."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


@dataclass
class Measurement:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: timed seconds of the measured phase (sum over units)
    measured_s: float = 0.0
    units: int = 0
    digests: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    #: end-to-end metric -> {"value", "unit"[, "n"]}
    metrics: dict = field(default_factory=dict)
    #: per-layer inputs gathered outside spans (bytes, entries, ...)
    extras: dict = field(default_factory=dict)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)

    def metric(self, name: str, value: float, unit: str,
               n: Optional[int] = None) -> None:
        entry: dict[str, Any] = {"value": value, "unit": unit}
        if n is not None:
            entry["n"] = n
        self.metrics[name] = entry


@dataclass
class Context:
    """Run parameters shared by every workload."""

    seed: int
    seconds: float
    tmp: Path
    #: exact number of units to run (fixed-work runs); None = timed
    units: Optional[int] = None
    #: called with every ExperimentResult computed in this process or
    #: returned by pool workers (traced runs feed per-layer counters)
    observe: Optional[Callable[[list], None]] = None
    pinned: dict = field(default_factory=dict)
    #: host speed helper; its samples taken during the measured phase
    speed: Optional[HostSpeed] = None
    speed_samples: list = field(default_factory=list)

    def tick(self) -> None:
        """Sample the host speed (between units, never inside one)."""
        if self.speed is not None:
            self.speed_samples.append(self.speed.sample())

    def more(self, k: int, timed: float, min_units: int,
             seconds: Optional[float] = None) -> bool:
        if self.units is not None:
            return k < self.units
        budget = self.seconds if seconds is None else seconds
        return k < min_units or timed < budget


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile (p in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def _grid_config(algorithm: str, duration: float, seed: int) -> Any:
    from repro.core.config import ExperimentConfig

    return ExperimentConfig(
        n_clusters=5, nodes_per_cluster=32, algorithm=algorithm,
        duration=duration, offered_load=2.0, drain=True, seed=seed,
    )


def _grid_rows(comparison: Any, schemes: tuple) -> list:
    """A compare_schemes grid as rows, NONE first, in scheme order."""
    return [[result_row(r) for r in per] for per in
            [comparison.baseline] + [comparison.per_scheme[s]
                                     for s in schemes]]


def _check_comparison(m: Measurement, comparison: Any, schemes: tuple,
                      n_clusters: int, label: str) -> str:
    """Check one compare_schemes grid; returns its digest."""
    grid = _grid_rows(comparison, schemes)
    reps = range(comparison.n_replications)
    bad = [f for per in grid_failures(grid, ("NONE",) + schemes, reps,
                                      n_clusters)
           for f in per if f]
    m.attempted += sum(len(per) for per in grid)
    if bad:
        m.fail(len(bad), f"{label}: {bad[0][0]}")
    return digest_rows(grid)


def _check_pinned(m: Measurement, ctx: Context, workload: str,
                  per_task: int) -> None:
    pinned = ctx.pinned.get(workload, []) if ctx.seed == DEFAULT_SEED else []
    for k, (got, want) in enumerate(zip(m.digests, pinned)):
        if got != want:
            m.fail(per_task, f"unit {k} digest {got[:12]} != pinned "
                             f"{want[:12]}")


def _serial_units(ctx: Context, m: Measurement, workload: str,
                  algorithm: str, duration: float, schemes: tuple,
                  reps: int) -> None:
    from repro.core.runner import compare_schemes

    per_unit = (len(schemes) + 1) * reps
    timed, k, done = 0.0, 0, 0
    while ctx.more(k, timed, min_units=1):
        ctx.tick()
        cfg = _grid_config(algorithm, duration, unit_seed(ctx.seed, k))
        t0 = time.perf_counter()
        try:
            comparison = compare_schemes(cfg, schemes, reps, n_workers=1)
        except Exception as exc:  # a raised task fails the whole unit
            timed += time.perf_counter() - t0
            m.attempted += per_unit
            m.fail(per_unit, f"unit {k} raised {exc!r}")
            m.digests.append("")
            k += 1
            continue
        timed += time.perf_counter() - t0
        done += per_unit
        if ctx.observe is not None:
            ctx.observe(_all_results(comparison, schemes))
        m.digests.append(_check_comparison(m, comparison, schemes, 5,
                                           f"unit {k}"))
        k += 1
    ctx.tick()
    m.units, m.measured_s = k, timed
    _check_pinned(m, ctx, workload, per_unit)
    m.metric("sims_per_s", done / timed, "sim/s")


def _all_results(comparison: Any, schemes: tuple) -> list:
    return list(comparison.baseline) + [
        r for s in schemes for r in comparison.per_scheme[s]
    ]


def paper_sweep(ctx: Context) -> Measurement:
    m = Measurement()
    _serial_units(ctx, m, "paper_sweep", "easy", 900.0, SCHEMES,
                  GRID_REPLICATIONS)
    return m


def cbf_backlog(ctx: Context) -> Measurement:
    m = Measurement()
    _serial_units(ctx, m, "cbf_backlog", "cbf", 1800.0, ("ALL",), 1)
    return m


def _cache_footprint(root: Path) -> tuple[int, int]:
    """(entries, bytes) of a disk result cache."""
    files = [p for p in root.glob("*/*.pkl") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def pool_sweep(ctx: Context) -> Measurement:
    from repro.core.cache import ResultCache
    from repro.core.runner import compare_schemes

    m = Measurement()
    workers = worker_count()
    per_unit = (len(SCHEMES) + 1) * GRID_REPLICATIONS
    cold_s, warm = 0.0, []
    entries = size = 0
    k = done = 0
    while ctx.more(k, cold_s + sum(warm), min_units=1):
        ctx.tick()
        cfg = _grid_config("easy", 900.0, unit_seed(ctx.seed, k))
        root = ctx.tmp / f"cache-{k}"
        t0 = time.perf_counter()
        try:
            cold = compare_schemes(cfg, SCHEMES, GRID_REPLICATIONS,
                                   n_workers=workers, cache=ResultCache(root))
            t1 = time.perf_counter()
            again = compare_schemes(cfg, SCHEMES, GRID_REPLICATIONS,
                                    n_workers=workers,
                                    cache=ResultCache(root))
        except Exception as exc:  # a raised task fails the whole unit
            cold_s += time.perf_counter() - t0
            m.attempted += 2 * per_unit
            m.fail(2 * per_unit, f"unit {k} raised {exc!r}")
            m.digests.append("")
            shutil.rmtree(root, ignore_errors=True)
            k += 1
            continue
        t2 = time.perf_counter()
        cold_s += t1 - t0
        done += per_unit
        warm.append(t2 - t1)
        if ctx.observe is not None:
            ctx.observe(_all_results(cold, SCHEMES))
        digest = _check_comparison(m, cold, SCHEMES, 5, f"unit {k} cold")
        m.digests.append(digest)
        m.attempted += per_unit
        if _all_results(again, SCHEMES) != _all_results(cold, SCHEMES):
            m.fail(per_unit, f"unit {k}: warm rerun differs from cold pass")
        n, b = _cache_footprint(root)
        entries, size = entries + n, size + b
        if n != per_unit:
            m.fail(per_unit, f"unit {k}: {n} cache entries, "
                             f"expected {per_unit}")
        shutil.rmtree(root, ignore_errors=True)
        k += 1
    ctx.tick()
    m.units, m.measured_s = k, cold_s + sum(warm)
    m.extras.update(workers=workers, cache_entries=entries,
                    cache_bytes=size, worker_peak_rss_mb=resource.getrusage(
                        resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
    _check_pinned(m, ctx, "pool_sweep", per_unit)
    m.metric("sims_per_s", done / cold_s, "sim/s")
    m.metric("warm_rerun_s", statistics.median(warm or [0.0]), "s",
             n=len(warm))
    return m


def pool_reference(ctx: Context, m: Measurement) -> None:
    """Unit 0's pool digest must equal the serial in-process digest."""
    if ctx.seed == DEFAULT_SEED and ctx.pinned.get("pool_sweep"):
        return  # already checked against the pinned digest
    from repro.core.runner import compare_schemes

    cfg = _grid_config("easy", 900.0, unit_seed(ctx.seed, 0))
    serial = compare_schemes(cfg, SCHEMES, GRID_REPLICATIONS, n_workers=1)
    if digest_rows(_grid_rows(serial, SCHEMES)) != m.digests[0]:
        m.fail((len(SCHEMES) + 1) * GRID_REPLICATIONS,
               "unit 0: pool digest != serial in-process digest")


class ServedStack:
    """An in-process sweep service plus one work-queue worker thread."""

    def __init__(self, state_dir: Path) -> None:
        from repro.service import QueueWorker, ServiceClient, SweepService

        self.service = SweepService(state_dir)
        port = self.service.start()
        url = f"http://127.0.0.1:{port}"
        self.worker = QueueWorker(url, worker_id="bench-worker",
                                  poll_interval_s=WORKER_POLL_S)
        self.thread = threading.Thread(target=self.worker.run,
                                       name="bench-worker", daemon=True)
        self.thread.start()
        self.client = ServiceClient(url)
        self.cache_root = state_dir / "cache"

    def close(self) -> None:
        self.worker.stop()
        self.thread.join(timeout=30)
        self.service.wait_idle(timeout=30)
        self.service.stop()


def served_spec(seed: int, k: int) -> dict:
    from repro.core.config import ExperimentConfig
    from repro.service import JobSpec

    cfg = ExperimentConfig(
        n_clusters=3, nodes_per_cluster=16, duration=300.0,
        offered_load=2.0, drain=True, seed=unit_seed(seed, k, "served"),
    )
    return JobSpec(
        configs=(cfg.with_(scheme="NONE"), cfg.with_(scheme="R2")),
        n_replications=SERVED_REPLICATIONS, executor="workqueue",
        chunksize=1,
    ).to_dict()


def _run_job(stack: ServedStack, spec: dict) -> tuple[float, Optional[bytes],
                                                      str]:
    """(latency, results bytes or None, final state) of one job."""
    from repro.service import ServiceError

    t0 = time.perf_counter()
    body, state = None, "unknown"
    try:
        job_id = stack.client.submit(spec)
        status = stack.client.wait(job_id, timeout=JOB_TIMEOUT_S,
                                   poll_interval_s=CLIENT_POLL_S)
        state = str(status.get("state"))
        if state == "done":
            body = stack.client.results_bytes(job_id)
    except (ServiceError, OSError, TimeoutError) as exc:
        state = repr(exc)
    return time.perf_counter() - t0, body, state


def served_sweep(ctx: Context, stack: ServedStack) -> Measurement:
    m = Measurement()
    min_jobs = SERVED_MIN_JOBS if ctx.units is None else 1
    cold_lat: list[float] = []
    body_hashes: list[Optional[bytes]] = []  # of each cold job's results
    specs: list[dict] = []
    total_bytes = 0
    k = 0
    while ctx.more(k, sum(cold_lat), min_jobs,
                   seconds=ctx.seconds * SERVED_COLD_SHARE):
        if k % SPEED_EVERY_JOBS == 0:
            ctx.tick()
        spec = served_spec(ctx.seed, k)
        lat, body, state = _run_job(stack, spec)
        cold_lat.append(lat)
        specs.append(spec)
        body_hashes.append(None if body is None
                           else hashlib.sha256(body).digest())
        m.attempted += 1
        if body is None:
            m.fail(1, f"cold job {k} ended {state}")
            m.digests.append("")
        else:
            total_bytes += len(body)
            grid = json.loads(body)["grid"]
            failures = grid_failures(grid, ("NONE", "R2"),
                                     range(SERVED_REPLICATIONS), 3)
            bad = [f for per in failures for f in per if f]
            if bad:
                m.fail(1, f"cold job {k}: {bad[0][0]}")
            m.digests.append(digest_rows(grid))
        k += 1
    cached_lat = []
    for k, spec in enumerate(specs):
        if k % SPEED_EVERY_JOBS == 0:
            ctx.tick()
        lat, body, state = _run_job(stack, spec)
        cached_lat.append(lat)
        m.attempted += 1
        if body is None or hashlib.sha256(body).digest() != body_hashes[k]:
            m.fail(1, f"cached job {k} ended {state} with results that "
                      "differ from its cold pass")
    ctx.tick()
    n = len(cold_lat)
    cold_s, cached_s = sum(cold_lat), sum(cached_lat)
    m.units, m.measured_s = n, cold_s + cached_s
    entries, size = _cache_footprint(stack.cache_root)
    m.extras.update(jobs=2 * n, cold_jobs=n, results_bytes=total_bytes,
                    cache_entries=entries, cache_bytes=size)
    _check_pinned(m, ctx, "served_sweep", 1)
    tasks_per_job = 2 * SERVED_REPLICATIONS
    m.metric("sims_per_s", n * tasks_per_job / cold_s, "sim/s")
    m.metric("jobs_per_s", 2 * n / (cold_s + cached_s), "job/s")
    m.metric("job_latency_p50_s", percentile(cold_lat, 50), "s", n=n)
    m.metric("job_latency_p90_s", percentile(cold_lat, 90), "s", n=n)
    m.metric("cached_job_latency_p50_s", percentile(cached_lat, 50), "s",
             n=n)
    m.metric("cached_job_latency_p90_s", percentile(cached_lat, 90), "s",
             n=n)
    return m
