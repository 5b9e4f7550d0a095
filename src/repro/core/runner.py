"""Replication sweeps and paired scheme comparisons.

The paper's figures report, for each redundancy scheme, the metric
*relative to the NONE baseline*, averaged over 50 experiments — i.e. a
mean of per-replication paired ratios.  The pairing works because the
job streams of replication r are identical across schemes (common
random numbers, see :mod:`repro.workload.stream`).

Replications are embarrassingly parallel.  All sweeps here flatten
their full (config x replication) grid through
:func:`~repro.core.orchestrator.run_grid`: one process pool for the
whole grid, tasks chunked as ``(config_index, replication)`` integer pairs (the configs
travel once via the pool initializer — nothing is materialised per
task), optional result caching, and deterministic reassembly so
``n_workers > 1`` is bit-identical to serial.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

if TYPE_CHECKING:  # typing-only: obs imports core at runtime
    from ..obs.metrics import MetricsRegistry

import numpy as np

from .cache import ResultCache
from .config import ExperimentConfig
from .metrics import summarize_ratios
from .orchestrator import GridStats, run_grid
from .results import ExperimentResult

_log = logging.getLogger("repro.core.runner")


def run_replications(
    config: ExperimentConfig,
    n_replications: int,
    n_workers: int = 1,
    first_replication: int = 0,
    cache: Optional[ResultCache] = None,
    chunksize: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    stats: Optional[GridStats] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> list[ExperimentResult]:
    """Run ``n_replications`` independent replications of ``config``."""
    [results] = run_grid(
        [config],
        n_replications,
        n_workers=n_workers,
        first_replication=first_replication,
        cache=cache,
        chunksize=chunksize,
        progress=progress,
        stats=stats,
        metrics=metrics,
    )
    return results


@dataclass(frozen=True)
class RelativeMetrics:
    """One scheme's metrics relative to the paired NONE baseline.

    All values are means of per-replication ratios; below 1.0 means the
    scheme improves on no-redundancy.
    """

    scheme: str
    n_replications: int
    avg_stretch: float
    cv_stretch: float
    max_stretch: float
    avg_turnaround: float
    #: fraction of replications in which the scheme's average stretch
    #: beat the baseline's (the paper: ">95% of the experiments for N=20")
    win_fraction: float
    #: worst observed relative average stretch (the paper: "worse by at
    #: most 0.4%" → 1.004)
    worst_avg_stretch: float
    #: standard deviation of the per-replication stretch ratios
    avg_stretch_ratio_std: float
    #: paired ratios excluded from the means because the baseline value
    #: was zero or NaN (summed over the four ratio metrics; 0 = every
    #: replication contributed everywhere)
    dropped_ratios: int = 0


@dataclass
class SchemeComparison:
    """Paired comparison of several schemes against NONE."""

    base_config: ExperimentConfig
    n_replications: int
    baseline: list[ExperimentResult]
    per_scheme: dict[str, list[ExperimentResult]] = field(default_factory=dict)

    def relative(self, scheme: str) -> RelativeMetrics:
        results = self.per_scheme[scheme]
        base = self.baseline
        assert len(results) == len(base)
        ratios = [
            r.avg_stretch / b.avg_stretch for r, b in zip(results, base)
        ]
        avg = summarize_ratios(
            [(r.avg_stretch, b.avg_stretch) for r, b in zip(results, base)]
        )
        cv = summarize_ratios(
            [(r.cv_stretch, b.cv_stretch) for r, b in zip(results, base)]
        )
        mx = summarize_ratios(
            [(r.max_stretch, b.max_stretch) for r, b in zip(results, base)]
        )
        turnaround = summarize_ratios(
            [(r.avg_turnaround, b.avg_turnaround) for r, b in zip(results, base)]
        )
        dropped = avg.dropped + cv.dropped + mx.dropped + turnaround.dropped
        if dropped:
            _log.warning(
                "scheme %s: %d paired ratio(s) had zero/NaN baselines and "
                "were excluded from the relative metrics", scheme, dropped,
            )
        return RelativeMetrics(
            scheme=scheme,
            n_replications=len(results),
            avg_stretch=avg.mean,
            cv_stretch=cv.mean,
            max_stretch=mx.mean,
            avg_turnaround=turnaround.mean,
            win_fraction=float(np.mean([r < 1.0 for r in ratios])),
            worst_avg_stretch=float(np.max(ratios)),
            avg_stretch_ratio_std=float(np.std(ratios)),
            dropped_ratios=dropped,
        )

    def all_relative(self) -> dict[str, RelativeMetrics]:
        return {s: self.relative(s) for s in self.per_scheme}


def paired_nonadopter_penalty(
    base_config: ExperimentConfig,
    scheme: str,
    adoption: float,
    n_replications: int,
    n_workers: int = 1,
    cache: Optional[ResultCache] = None,
    stats: Optional[GridStats] = None,
) -> float:
    """Figure 4's fairness effect, isolated by pairing.

    Returns the mean over replications of ``stretch(non-adopters at
    adoption p) / stretch(same jobs at p = 0)``: how much worse the
    *identical* set of non-adopting jobs fares because other users
    adopted redundancy.  Values above 1 quantify the paper's
    "jobs using redundant requests negatively impact the performance
    perceived by jobs not using redundant requests".

    Pairing works because job streams and adoption draws are common
    random numbers: the non-adopter set at adoption ``p`` exists
    unchanged in the ``p = 0`` run.
    """
    if not 0.0 < adoption <= 1.0:
        raise ValueError(f"adoption must be in (0, 1], got {adoption}")
    cfg_p = base_config.with_(scheme=scheme, adoption_probability=adoption)
    cfg_0 = base_config.with_(scheme=scheme, adoption_probability=0.0)
    with_adoption, without = run_grid(
        [cfg_p, cfg_0], n_replications, n_workers=n_workers, cache=cache,
        stats=stats,
    )
    ratios = []
    for rp, r0 in zip(with_adoption, without):
        nr_ids = {j.job_id for j in rp.jobs if not j.uses_redundancy}
        s_p = [j.stretch for j in rp.jobs if j.job_id in nr_ids]
        s_0 = [j.stretch for j in r0.jobs if j.job_id in nr_ids]
        if s_p and s_0:
            ratios.append(float(np.mean(s_p)) / float(np.mean(s_0)))
    return float(np.mean(ratios)) if ratios else float("nan")


def compare_schemes(
    base_config: ExperimentConfig,
    schemes: Sequence[str],
    n_replications: int,
    n_workers: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    cache: Optional[ResultCache] = None,
    chunksize: Optional[int] = None,
    stats: Optional[GridStats] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> SchemeComparison:
    """Run NONE plus every scheme in ``schemes`` on paired job streams.

    ``base_config.scheme`` is ignored; each run derives its scheme from
    the sweep.  The baseline and all schemes form one flattened grid, so
    with ``n_workers > 1`` baseline and scheme replications interleave
    across the pool instead of synchronising per scheme.  ``progress``
    receives a short message per grid entry (hook for CLI/bench
    reporting); ``metrics`` receives the engine's cache/task accounting
    (see :func:`~repro.core.orchestrator.run_grid`).
    """
    def note(msg: str) -> None:
        if progress is not None:
            progress(msg)

    baseline_cfg = base_config.with_(scheme="NONE")
    note(f"running baseline: {baseline_cfg.describe()}")
    _log.debug(
        "comparing %d scheme(s) against NONE, %d replication(s)",
        len(schemes), n_replications,
    )
    scheme_cfgs = []
    for scheme in schemes:
        cfg = base_config.with_(scheme=scheme)
        note(f"running scheme:   {cfg.describe()}")
        scheme_cfgs.append(cfg)
    results = run_grid(
        [baseline_cfg, *scheme_cfgs],
        n_replications,
        n_workers=n_workers,
        cache=cache,
        chunksize=chunksize,
        stats=stats,
        metrics=metrics,
    )
    comparison = SchemeComparison(
        base_config=base_config,
        n_replications=n_replications,
        baseline=results[0],
    )
    for scheme, scheme_results in zip(schemes, results[1:]):
        comparison.per_scheme[scheme] = scheme_results
    return comparison
