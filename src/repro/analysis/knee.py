"""Throughput-knee study driven entirely by online statistics.

Sweeps offered load ρ per cancellation policy over a fixed submission
window (no drain) and finds the *knee*: the largest load the platform
still absorbs, defined as completions keeping up with submissions
(completion fraction ≥ :data:`KNEE_COMPLETION_THRESHOLD`).  Beyond the
knee, queues grow without bound and the completed-job population stops
being representative — exactly the regime where the paper's uncalibrated
workload lives.

The study is deliberately restricted to the streaming estimators of
:mod:`repro.obs.stream` plus scalar counters: the per-task runner strips
the per-request ``jobs`` array before the result crosses the process
boundary, so a knee sweep's memory footprint is O(cells), not O(jobs).
Completion counts come from the online stretch stream (one observation
per winning copy), quantiles from its P² bank — a working demonstration
that the observability layer can answer a capacity question on its own.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..core.config import ExperimentConfig
from ..core.orchestrator import run_grid
from ..core.results import ExperimentResult
from ..obs.stream import MergedOnlineMetrics

#: a load cell is "sustained" when at least this fraction of submitted
#: jobs completed inside the window (online stretch count / submitted)
KNEE_COMPLETION_THRESHOLD = 0.9

#: cancellation policies swept by the registry entry
KNEE_POLICIES: tuple[str, ...] = ("cancel-on-start", "cancel-on-complete")


def run_single_lean(
    config: ExperimentConfig, replication: int = 0
) -> ExperimentResult:
    """``run_grid`` runner keeping only scalars and online payloads.

    Drops the per-request ``jobs`` array (the only O(jobs) field) so a
    wide load sweep ships tiny results between workers.  Must never be
    used with a cache: a stripped result would shadow a full one.
    """
    from ..core.experiment import run_single

    result = run_single(config, replication)
    return dataclasses.replace(result, jobs=[])


@dataclass(frozen=True)
class KneeCell:
    """One (policy, load) cell, aggregated over its replications."""

    policy: str
    load: float
    n_submitted: int
    n_completed: int          # online stretch observations = winners
    stretch_p50: Optional[float]
    stretch_p99: Optional[float]
    stretch_mean: Optional[float]
    wasted_node_seconds: float

    @property
    def completion_fraction(self) -> float:
        if self.n_submitted == 0:
            return float("nan")
        return self.n_completed / self.n_submitted

    @property
    def sustained(self) -> bool:
        f = self.completion_fraction
        return f == f and f >= KNEE_COMPLETION_THRESHOLD


@dataclass
class KneeStudy:
    """All cells of a knee sweep plus the per-policy classification."""

    policies: tuple[str, ...]
    loads: tuple[float, ...]
    n_replications: int
    cells: list[KneeCell] = field(default_factory=list)

    def cell(self, policy: str, load: float) -> KneeCell:
        for c in self.cells:
            if c.policy == policy and c.load == load:
                return c
        raise KeyError(f"no cell ({policy!r}, {load!r})")

    def knee(self, policy: str) -> Optional[float]:
        """Largest swept load this policy still sustains (None: none)."""
        sustained = [
            c.load for c in self.cells if c.policy == policy and c.sustained
        ]
        return max(sustained) if sustained else None

    def to_payload(self) -> dict:
        return {
            "threshold": KNEE_COMPLETION_THRESHOLD,
            "loads": list(self.loads),
            "n_replications": self.n_replications,
            "knee_load": {p: self.knee(p) for p in self.policies},
            "cells": [
                {
                    "policy": c.policy,
                    "load": c.load,
                    "n_submitted": c.n_submitted,
                    "n_completed": c.n_completed,
                    "completion_fraction": (
                        c.completion_fraction
                        if c.completion_fraction == c.completion_fraction
                        else None
                    ),
                    "sustained": c.sustained,
                    "stretch_p50": c.stretch_p50,
                    "stretch_p99": c.stretch_p99,
                    "stretch_mean": c.stretch_mean,
                    "wasted_node_seconds": c.wasted_node_seconds,
                }
                for c in self.cells
            ],
        }


def _aggregate_cell(
    policy: str, load: float, results: Sequence[ExperimentResult]
) -> KneeCell:
    merged = MergedOnlineMetrics()
    for res in results:
        merged.add(res.online_metrics)
    n_completed = merged.count("stretch")
    mean, _ = merged.mean_variance("stretch")
    p50 = merged.quantile("stretch", 0.5)
    p99 = merged.quantile("stretch", 0.99)
    return KneeCell(
        policy=policy,
        load=load,
        n_submitted=sum(res.n_submitted_jobs for res in results),
        n_completed=n_completed,
        stretch_p50=p50 if not math.isnan(p50) else None,
        stretch_p99=p99 if not math.isnan(p99) else None,
        stretch_mean=mean if not math.isnan(mean) else None,
        wasted_node_seconds=sum(
            res.wasted_node_seconds for res in results
        ),
    )


def run_knee_study(
    base: ExperimentConfig,
    loads: Sequence[float],
    n_replications: int,
    policies: Sequence[str] = KNEE_POLICIES,
    n_workers: int = 1,
) -> KneeStudy:
    """Sweep ρ per cancellation policy; classify the throughput knee.

    ``base`` fixes everything but the swept axes; the sweep forces a
    fixed window (``drain=False``) because a drained run completes every
    job by construction and can have no knee.  Caching is off by design:
    the lean runner's stripped results must never enter the shared
    cache.
    """
    configs = [
        base.with_(cancellation_policy=policy, offered_load=load, drain=False)
        for policy in policies
        for load in loads
    ]
    grid = run_grid(
        configs,
        n_replications,
        n_workers=n_workers,
        cache=None,
        runner=run_single_lean,
    )
    study = KneeStudy(
        policies=tuple(policies),
        loads=tuple(float(x) for x in loads),
        n_replications=n_replications,
    )
    it = iter(grid)
    for policy in policies:
        for load in loads:
            study.cells.append(_aggregate_cell(policy, float(load), next(it)))
    return study
