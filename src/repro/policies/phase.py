"""Phase-diagram sweeps: *when* are redundant requests harmful?

The paper's verdict — redundancy is harmful — is rendered for one
protocol (first-start-wins, cancel-on-start), one workload (Lublin) and
one load regime.  The modern literature (PAPERS.md: Raaijmakers et al.,
Behrouzi-Far & Soljanin, Anton et al.) shows the verdict *flips* across
that space.  This module sweeps the cross product

    (cancellation policy) × (redundancy degree d) × (service regime) × (load ρ)

and classifies every cell as **helpful**, **harmful** or **neutral**
per metric:

* *mean stretch ratio* — redundancy-d's average stretch relative to a
  NONE baseline simulated on the same job streams (common random
  numbers); helpful below ``1 - tolerance``, harmful above
  ``1 + tolerance``.
* *wasted-work fraction* — node-seconds burned by non-winning copies as
  a fraction of all node-seconds consumed; one-sided (waste can only
  hurt), harmful above the threshold.

Every (regime, load) pair shares one NONE baseline across policies and
degrees: a non-redundant job never fans out, so the cancellation policy
and the degree are inert for it, and the run-grid deduplicates the
repeated config by fingerprint anyway.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from ..core.cache import ResultCache
from ..core.config import ExperimentConfig
from ..core.metrics import mean_of_ratios
from ..core.orchestrator import run_grid

#: bump when the payload layout or classification semantics change
PHASE_SCHEMA_VERSION = 1

#: stretch ratios within ±2 % of 1.0 are statistical wash, not a verdict
STRETCH_TOLERANCE = 0.02

#: wasted-work fraction above which the cost side is called harmful
WASTE_THRESHOLD = 0.05

CLASSES = ("helpful", "neutral", "harmful")


def classify_stretch(ratio: float, tolerance: float = STRETCH_TOLERANCE) -> str:
    """Helpful/neutral/harmful verdict for a mean stretch ratio."""
    if not np.isfinite(ratio):
        return "harmful"
    if ratio < 1.0 - tolerance:
        return "helpful"
    if ratio > 1.0 + tolerance:
        return "harmful"
    return "neutral"


def classify_waste(fraction: float, threshold: float = WASTE_THRESHOLD) -> str:
    """Neutral/harmful verdict for a wasted-work fraction (one-sided)."""
    if not np.isfinite(fraction) or fraction > threshold:
        return "harmful"
    return "neutral"


@dataclass(frozen=True)
class PhaseCell:
    """One classified point of the phase diagram."""

    policy: str
    degree: int
    regime: str
    load: float
    stretch_ratio: float
    waste_fraction: float
    stretch_class: str
    waste_class: str

    @property
    def key(self) -> "tuple[str, int, str, float]":
        return (self.policy, self.degree, self.regime, self.load)


@dataclass
class PhaseDiagram:
    """A classified sweep over (policy × d × regime × load)."""

    cells: list[PhaseCell]
    n_replications: int
    base: dict

    def helpful(self) -> list[PhaseCell]:
        return [c for c in self.cells if c.stretch_class == "helpful"]

    def harmful(self) -> list[PhaseCell]:
        return [c for c in self.cells if c.stretch_class == "harmful"]

    def cell(
        self, policy: str, degree: int, regime: str, load: float
    ) -> PhaseCell:
        for c in self.cells:
            if c.key == (policy, degree, regime, load):
                return c
        raise KeyError(f"no phase cell ({policy}, R{degree}, {regime}, ρ={load})")

    def to_payload(self) -> dict:
        """Schema-versioned JSON-ready view (the CI smoke asserts this)."""
        return {
            "kind": "repro-phase-diagram",
            "schema_version": PHASE_SCHEMA_VERSION,
            "stretch_tolerance": STRETCH_TOLERANCE,
            "waste_threshold": WASTE_THRESHOLD,
            "n_replications": self.n_replications,
            "base": self.base,
            "cells": [asdict(c) for c in self.cells],
            "n_helpful": len(self.helpful()),
            "n_harmful": len(self.harmful()),
        }


def run_phase_diagram(
    base: ExperimentConfig,
    policies: Sequence[str],
    degrees: Sequence[int],
    regimes: Sequence[str],
    loads: Sequence[float],
    n_replications: int,
    n_workers: int = 1,
    cache: Optional[ResultCache] = None,
) -> PhaseDiagram:
    """Sweep the phase-diagram grid and classify every cell.

    ``base`` fixes everything the sweep does not vary (platform,
    algorithm, duration, seed); ``scheme``/``cancellation_policy``/
    ``service_regime``/``offered_load`` are overridden per cell.
    Degrees are expressed through the generalised ``R<d>`` schemes.
    """
    if not (policies and degrees and regimes and loads):
        raise ValueError("phase diagram needs at least one value per axis")
    if min(degrees) < 2:
        raise ValueError(f"redundancy degrees must be >= 2, got {min(degrees)}")
    configs: list[ExperimentConfig] = []
    index: dict[tuple, int] = {}

    def add(cfg: ExperimentConfig, key: tuple) -> None:
        index[key] = len(configs)
        configs.append(cfg)

    for regime in regimes:
        for load in loads:
            add(
                base.with_(
                    scheme="NONE", service_regime=regime, offered_load=load
                ),
                ("NONE", regime, load),
            )
            for policy in policies:
                for d in degrees:
                    add(
                        base.with_(
                            scheme=f"R{d}",
                            cancellation_policy=policy,
                            service_regime=regime,
                            offered_load=load,
                        ),
                        (policy, d, regime, load),
                    )
    grid = run_grid(configs, n_replications, n_workers=n_workers, cache=cache)
    cells: list[PhaseCell] = []
    for regime in regimes:
        for load in loads:
            baseline = grid[index[("NONE", regime, load)]]
            for policy in policies:
                for d in degrees:
                    results = grid[index[(policy, d, regime, load)]]
                    ratio = mean_of_ratios(
                        [
                            (res.avg_stretch, b.avg_stretch)
                            for res, b in zip(results, baseline)
                        ]
                    )
                    waste = float(
                        np.mean([res.wasted_work_fraction for res in results])
                    )
                    cells.append(
                        PhaseCell(
                            policy=policy,
                            degree=d,
                            regime=regime,
                            load=load,
                            stretch_ratio=float(ratio),
                            waste_fraction=waste,
                            stretch_class=classify_stretch(float(ratio)),
                            waste_class=classify_waste(waste),
                        )
                    )
    return PhaseDiagram(
        cells=cells,
        n_replications=n_replications,
        base={
            "n_clusters": base.n_clusters,
            "nodes_per_cluster": base.nodes_per_cluster,
            "algorithm": base.algorithm,
            "duration": base.duration,
            "seed": base.seed,
        },
    )
