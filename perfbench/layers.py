"""Per-layer metrics of a traced run.

Three sources feed them:

* span counts and self times from :mod:`tracing` (``<span>.calls``,
  ``<span>.self_s``, ``<span>.s``);
* counters read from the results the run computed (:class:`Counters`):
  simulator events, queue lengths, cancellations and the program's own
  ``wall_time_s``/``phase_timings`` stamps.  Results computed inside
  pool workers reach the parent only this way;
* figures the workload gathered outside any span (cache footprint,
  results bytes, worker memory) and return-value observations
  (cache hits, empty leases, pool chunks).

The names, units and directions live in ``layers.json``, with the
end-to-end metric and workload each should move.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
LAYER_MAP = HERE / "layers.json"

#: spans reported as ``.calls`` and ``.self_s``
CALL_SPANS = (
    "sched.submit", "sched.cancel",
    "profile.can_place", "profile.find_start", "profile.adjust",
    "coordinator.schedule_job", "coordinator.submit_job",
    "coordinator.dispatch_cancellations",
    "online.observe_completion", "orchestrator.record",
    "cache.put", "cache.get", "service.handle",
)
#: spans reported as total seconds ``.s``
TOTAL_SPANS = (
    "orchestrator.prepare", "orchestrator.assemble", "pool.execute",
    "service.encode", "service.decode", "service.write_results",
    "workload.calibrate", "workload.generate",
)


def load_map() -> dict:
    return json.loads(LAYER_MAP.read_text(encoding="utf-8"))


class Counters:
    """Sums over the ExperimentResults a traced run computed."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.results = 0
        self.events = self.compactions = 0
        self.max_queue_length = self.backfilled = 0
        self.cancellations = self.requests = 0
        self.completed = self.jobs = 0
        self.wall_s = 0.0
        self.phases = {"generate_s": 0.0, "simulate_s": 0.0,
                       "aggregate_s": 0.0}
        #: return-value observations
        self.cache_gets = self.cache_hits = 0
        self.leases = self.empty_leases = 0
        self.pool_chunks = 0

    def add(self, results: list) -> None:
        with self._lock:
            for r in results:
                self.results += 1
                self.events += r.events_executed
                self.compactions += r.heap_compactions
                self.max_queue_length = max(
                    [self.max_queue_length]
                    + [c.max_queue_length for c in r.clusters])
                self.backfilled += sum(c.backfilled for c in r.clusters)
                self.cancellations += r.total_cancellations
                self.requests += r.total_requests
                self.completed += len(r.jobs)
                self.jobs += r.n_submitted_jobs
                self.wall_s += r.wall_time_s
                for key in self.phases:
                    self.phases[key] += r.phase_timings.get(key, 0.0)

    # -- return-value observers (see tracing.Tracer.observers) ----------

    def on_cache_get(self, out: Any, args: tuple) -> None:
        with self._lock:
            self.cache_gets += 1
            self.cache_hits += out is not None

    def on_handle(self, out: Any, args: tuple) -> None:
        if args[1].path != "/v1/queue/lease":
            return
        empty = json.loads(out.body).get("lease") is None
        with self._lock:
            self.leases += 1
            self.empty_leases += empty

    def on_pool_execute(self, out: Any, args: tuple) -> None:
        chunks = args[1].status()["chunks_total"]
        with self._lock:
            self.pool_chunks += chunks

    def on_encode(self, out: Any, args: tuple) -> None:
        self.add([result for _, _, result in args[0]])

    def observers(self) -> dict:
        return {
            "cache.get": self.on_cache_get,
            "service.handle": self.on_handle,
            "pool.execute": self.on_pool_execute,
            "service.encode": self.on_encode,
        }


def _ratio(num: float, den: float) -> float:
    """num/den, and 0 where the layer never ran (den == 0)."""
    return num / den if den else 0.0


def per_layer(spans: dict, c: Counters, extras: dict) -> dict[str, float]:
    """Every per-layer metric of ``layers.json`` except the overhead ratio
    (which needs the untraced twin run)."""
    out: dict[str, float] = {
        "sim.run.s": spans["sim.run"]["s"],
        "sim.run.self_s": spans["sim.run"]["self_s"],
        "sim.events": c.events,
        "sim.compactions": c.compactions,
        "sched.max_queue_length": c.max_queue_length,
        "sched.backfilled": c.backfilled,
        "coordinator.cancellations": c.cancellations,
        "coordinator.useful_ratio": _ratio(c.completed, c.requests),
        "workload.calibrate.calls": spans["workload.calibrate"]["calls"],
        "workload.generate.calls": spans["workload.generate"]["calls"],
        "workload.jobs": c.jobs,
        "run_single.calls": c.results,
        "run_single.s": c.wall_s,
        "pool.chunks": c.pool_chunks,
        "pool.worker_peak_rss_mb": extras.get("worker_peak_rss_mb", 0.0),
        "cache.hit_ratio": _ratio(c.cache_hits, c.cache_gets),
        "cache.bytes_per_entry": _ratio(extras.get("cache_bytes", 0),
                                        extras.get("cache_entries", 0)),
        "service.requests_per_job": _ratio(
            spans["service.handle"]["calls"], extras.get("jobs", 0)),
        "service.empty_lease_ratio": _ratio(c.empty_leases, c.leases),
        "service.results_bytes_per_job": _ratio(
            extras.get("results_bytes", 0), extras.get("cold_jobs", 0)),
    }
    for name in CALL_SPANS:
        out[f"{name}.calls"] = spans[name]["calls"]
        out[f"{name}.self_s"] = spans[name]["self_s"]
    for name in TOTAL_SPANS:
        out[f"{name}.s"] = spans[name]["s"]
    for key, value in c.phases.items():
        out[f"run_single.{key}"] = value
    profile_self = sum(spans[f"profile.{p}"]["self_s"]
                       for p in ("can_place", "find_start", "adjust"))
    out["profile.share"] = _ratio(profile_self, c.wall_s)
    out["online.share"] = _ratio(
        spans["online.observe_completion"]["self_s"], c.wall_s)
    out["pool.busy_ratio"] = _ratio(
        c.wall_s, spans["pool.execute"]["s"] * extras.get("workers", 1))
    return {k: float(v) for k, v in out.items()}
