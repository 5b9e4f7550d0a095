"""Service-time regimes beyond Lublin–Feitelson.

The harmfulness verdict on redundant requests is not universal: the
modern redundancy-d literature shows it flips with the *service-time
regime*.  Raaijmakers, Borst & Boxma study **scaled Bernoulli** service
requirements (almost all jobs tiny, a rare factor-``f`` giant) where
redundancy with cancel-on-start is provably helpful for any degree;
Behrouzi-Far & Soljanin and Anton et al.'s stability survey use
**bi-modal** runtimes to locate the helpful/harmful crossover.  This
module adds both regimes alongside the paper's Lublin model so the
phase-diagram experiment (:mod:`repro.policies.phase`) can actually
reach the crossover.

A regime replaces only the *runtime* marginal: arrival times, node
counts and estimate/adoption draws keep their Lublin machinery and
their keyed RNG streams.  The common-random-numbers discipline that
matters for paired comparisons — every scheme/policy/degree under test
sees the *same* job streams as its NONE baseline — is preserved
because streams are keyed on (replication, cluster) only, never on the
scheme or policy (:mod:`repro.workload.stream`).  Runtimes are sampled
independently of the node count, which makes the offered load analytic:

    rho = E[nodes] * E[runtime] / (mean_interarrival * max_nodes)

so calibration needs one Monte-Carlo estimate of ``E[nodes]`` (pinned
stream) and no fixed-point iteration.  ``run_single`` memoises that
estimate with the Lublin fits (:class:`repro.core.experiment.CalibrationMemo`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .lublin import LublinGenerator, LublinParams

#: accepted ``ExperimentConfig.service_regime`` values; "lublin" means
#: the paper's model (no regime object, the null behaviour)
REGIME_NAMES = ("lublin", "bernoulli", "bimodal")


@dataclass(frozen=True)
class ScaledBernoulliRegime:
    """Scaled-Bernoulli runtimes: rare giants among tiny jobs.

    ``runtime = scale * short * (factor with prob. p_large, else 1)``.
    With the defaults, 98 % of jobs take a minute and 2 % take 100
    minutes — the heavy-tailed two-point law of Raaijmakers et al.,
    where a redundant copy's chance to dodge a giant-clogged queue is
    what makes redundancy pay.
    """

    short: float = 60.0
    factor: float = 100.0
    p_large: float = 0.02
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.short <= 0 or self.factor <= 0 or self.scale <= 0:
            raise ValueError("short, factor and scale must be positive")
        if not 0.0 <= self.p_large <= 1.0:
            raise ValueError(f"p_large must be in [0,1], got {self.p_large}")

    def sample(self, rng: np.random.Generator, nodes: int) -> float:
        # ``nodes`` is accepted for signature uniformity with Lublin's
        # node-dependent runtimes but deliberately unused: the two-point
        # law is independent of job size.
        base = self.scale * self.short
        if rng.random() < self.p_large:
            return base * self.factor
        return base

    def mean_runtime(self) -> float:
        """Analytic mean (no Monte-Carlo needed for calibration)."""
        return self.scale * self.short * (1.0 + self.p_large * (self.factor - 1.0))

    def with_scale(self, scale: float) -> "ScaledBernoulliRegime":
        return replace(self, scale=scale)


@dataclass(frozen=True)
class BimodalRegime:
    """Bi-modal runtimes: a short mode and a long mode, nothing between.

    ``runtime = scale * (r_long with prob. p_long, else r_short)``.  The
    defaults (1 min / 1 h, 10 % long) put substantial mass on both
    modes, the shape Behrouzi-Far & Soljanin use to exhibit the
    redundancy crossover as load varies.
    """

    r_short: float = 60.0
    r_long: float = 3600.0
    p_long: float = 0.1
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.r_short <= 0 or self.r_long <= 0 or self.scale <= 0:
            raise ValueError("r_short, r_long and scale must be positive")
        if not 0.0 <= self.p_long <= 1.0:
            raise ValueError(f"p_long must be in [0,1], got {self.p_long}")

    def sample(self, rng: np.random.Generator, nodes: int) -> float:
        if rng.random() < self.p_long:
            return self.scale * self.r_long
        return self.scale * self.r_short

    def mean_runtime(self) -> float:
        return self.scale * (
            self.p_long * self.r_long + (1.0 - self.p_long) * self.r_short
        )

    def with_scale(self, scale: float) -> "BimodalRegime":
        return replace(self, scale=scale)


ServiceRegime = Union[ScaledBernoulliRegime, BimodalRegime]


def make_service_regime(name: str) -> Optional[ServiceRegime]:
    """Resolve a config-facing regime name; ``"lublin"`` maps to ``None``."""
    key = name.lower()
    if key == "lublin":
        return None
    if key == "bernoulli":
        return ScaledBernoulliRegime()
    if key == "bimodal":
        return BimodalRegime()
    raise ValueError(
        f"unknown service regime {name!r}; choose from {REGIME_NAMES}"
    )


class RegimeGenerator(LublinGenerator):
    """Lublin arrivals and node counts with regime-drawn runtimes.

    Only :meth:`sample_runtime` is overridden; it draws from the same
    keyed workload stream the Lublin runtime sampler would use, so the
    generator remains a pure function of (replication, cluster, params,
    regime) — deterministic and scheme/policy-independent.
    """

    def __init__(
        self,
        params: LublinParams,
        max_nodes: int,
        rng: np.random.Generator,
        regime: ServiceRegime,
    ) -> None:
        super().__init__(params, max_nodes, rng)
        self.regime = regime

    def sample_runtime(self, nodes: int) -> float:
        return self.regime.sample(self.rng, nodes)


def empirical_mean_nodes(params: LublinParams, max_nodes: int,
                         n: int = 20_000, seed: int = 0) -> float:
    """Monte-Carlo estimate of the Lublin mean node count (calibration)."""
    # repro-lint: disable=DET001,PURE001 -- pinned calibration stream:
    # the generator is seeded from the explicit ``seed`` argument (default
    # 0), so this is a pure function of its inputs; the regime scale it
    # produces is baked into every phase-diagram experiment and rekeying
    # it would shift all calibrated loads
    gen = LublinGenerator(params, max_nodes, np.random.default_rng(seed))
    return sum(gen.sample_nodes() for _ in range(n)) / n


def regime_scaled_for_load(
    regime: ServiceRegime,
    rho: float,
    max_nodes: int,
    params: Optional[LublinParams] = None,
    mean_nodes: Optional[float] = None,
) -> ServiceRegime:
    """Return the regime rescaled so the per-cluster offered load is ``rho``.

    Unlike Lublin calibration (where nodes and runtime are dependent and
    the clamp floor perturbs the fit), the regimes draw runtimes
    independently of job size, so the load factorises and the scale is
    exact given ``E[nodes]``.  ``mean_nodes`` is that expectation for
    ``(params, max_nodes)``; it is estimated with
    :func:`empirical_mean_nodes` when not given.
    """
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    params = params or LublinParams()
    if mean_nodes is None:
        mean_nodes = empirical_mean_nodes(params, max_nodes)
    base = regime.with_scale(1.0)
    target_mean_runtime = rho * params.mean_interarrival * max_nodes / mean_nodes
    scale = target_mean_runtime / base.mean_runtime()
    if not math.isfinite(scale) or scale <= 0:  # pragma: no cover - defensive
        raise ValueError(f"degenerate calibration scale {scale}")
    return base.with_scale(scale)
