"""Per-cluster job streams with common-random-number discipline.

Each cluster receives its own stream of jobs (Section 3.1.1).  For the
paired comparisons the paper makes ("relative to the scheme using no
redundant requests", averaged over 50 experiments on the *same* job
streams), stream content must depend only on (replication, cluster) —
never on the redundancy scheme under test.  This module owns that
discipline: the workload stream, the estimate stream and the
redundancy-adoption stream are all keyed independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..sim.rng import RngFactory
from .estimates import EstimateModel, ExactEstimates
from .lublin import LublinGenerator, LublinParams
from .regimes import RegimeGenerator, ServiceRegime


@dataclass(frozen=True, slots=True)
class StreamJob:
    """A fully specified job, ready for submission.

    Attributes
    ----------
    origin:
        Index of the cluster where the user submits (their "local"
        cluster; one request always goes here).
    arrival:
        Absolute submission time in seconds.
    nodes, runtime:
        Size and actual execution time.
    requested_time:
        The user's estimate (>= runtime).
    uses_redundancy:
        Whether this job's user employs redundant requests (drawn
        per-job with the experiment's adoption probability ``p``;
        Figure 4 sweeps ``p``).
    """

    origin: int
    arrival: float
    nodes: int
    runtime: float
    requested_time: float
    uses_redundancy: bool


def generate_cluster_stream(
    rng_factory: RngFactory,
    replication: int,
    cluster_index: int,
    max_nodes: int,
    duration: float,
    params: Optional[LublinParams] = None,
    estimate_model: Optional[EstimateModel] = None,
    adoption_probability: float = 1.0,
    regime: Optional[ServiceRegime] = None,
) -> list[StreamJob]:
    """Generate the job stream arriving at one cluster.

    Three independent random streams are used so that changing the
    estimate model or the adoption probability never perturbs the
    workload itself (arrival times, sizes, runtimes).  An optional
    service ``regime`` (:mod:`repro.workload.regimes`) swaps the
    runtime marginal while keeping Lublin arrivals and node counts.
    """
    if not 0.0 <= adoption_probability <= 1.0:
        raise ValueError(f"adoption probability must be in [0,1], got "
                         f"{adoption_probability}")
    params = params or LublinParams()
    estimate_model = estimate_model or ExactEstimates()
    work_rng = rng_factory.generator("rep", replication, "cluster", cluster_index,
                                     "workload")
    est_rng = rng_factory.generator("rep", replication, "cluster", cluster_index,
                                    "estimates")
    adopt_rng = rng_factory.generator("rep", replication, "cluster", cluster_index,
                                      "adoption")
    if regime is not None:
        gen: LublinGenerator = RegimeGenerator(params, max_nodes, work_rng, regime)
    else:
        gen = LublinGenerator(params, max_nodes, work_rng)
    jobs: list[StreamJob] = []
    for raw in gen.jobs_until(duration):
        requested = estimate_model.requested_time(raw.runtime, est_rng)
        uses = bool(adopt_rng.random() < adoption_probability)
        jobs.append(
            StreamJob(
                origin=cluster_index,
                arrival=raw.arrival,
                nodes=raw.nodes,
                runtime=raw.runtime,
                requested_time=requested,
                uses_redundancy=uses,
            )
        )
    return jobs


def generate_platform_streams(
    rng_factory: RngFactory,
    replication: int,
    node_counts: Sequence[int],
    duration: float,
    params_per_cluster: Optional[Sequence[LublinParams]] = None,
    estimate_model: Optional[EstimateModel] = None,
    adoption_probability: float = 1.0,
    regime: Optional[ServiceRegime] = None,
) -> list[list[StreamJob]]:
    """Generate one stream per cluster.

    ``params_per_cluster`` allows the heterogeneous setup of Table 3
    (different arrival rates at different sites); by default every
    cluster uses the same parameters, i.e. statistically identical
    streams (the paper's homogeneous setup).
    """
    if params_per_cluster is not None and len(params_per_cluster) != len(node_counts):
        raise ValueError(
            f"{len(params_per_cluster)} parameter sets for {len(node_counts)} clusters"
        )
    streams = []
    for i, max_nodes in enumerate(node_counts):
        params = params_per_cluster[i] if params_per_cluster is not None else None
        streams.append(
            generate_cluster_stream(
                rng_factory,
                replication,
                i,
                max_nodes,
                duration,
                params=params,
                estimate_model=estimate_model,
                adoption_probability=adoption_probability,
                regime=regime,
            )
        )
    return streams


def merge_streams(streams: Sequence[Sequence[StreamJob]]) -> list[StreamJob]:
    """All jobs across clusters in global arrival order.

    Ties (identical arrivals at different clusters) are broken by origin
    index for determinism.
    """
    merged = [job for stream in streams for job in stream]
    merged.sort(key=lambda j: (j.arrival, j.origin))
    return merged
