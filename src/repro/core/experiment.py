"""Single-experiment driver: build the platform, run one replication.

The protocol follows Section 3.3 of the paper exactly:

1. generate one Lublin job stream per cluster (common random numbers:
   the stream depends only on the replication and cluster indices);
2. each job submits one request to its local cluster and, if its user
   employs redundancy, copies to scheme-chosen remote clusters;
3. the first copy to start wins, the rest are cancelled;
4. the simulation runs until every job completes (the 6-hour window
   bounds *submissions*, not executions);
5. per-job outcomes and per-queue statistics are extracted.
"""

from __future__ import annotations

# repro-lint: disable-file=DET001 -- perf_counter here only stamps the
# generate/simulate/online/aggregate phase timings (wall_time_s
# metrics); no host time ever reaches the simulated trajectory
import threading
import time
from collections import OrderedDict
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Optional, Union, cast

import numpy as np

if TYPE_CHECKING:  # typing-only: obs/sanitize import core at runtime
    from ..obs.probes import ProbeSampler
    from ..obs.trace import TraceRecorder
    from ..sanitize.auditor import InvariantAuditor

from ..cluster.platform import HETEROGENEOUS_NODE_CHOICES, Platform
from ..contracts import declared_pure
from ..faults import FaultInjector
from ..sim.engine import Simulator
from ..sim.rng import RngFactory
from ..workload import regimes
from ..workload.estimates import make_estimate_model
from ..workload.lublin import LublinParams, scaled_for_load
from ..workload.stream import StreamJob, generate_platform_streams, merge_streams
from .config import ExperimentConfig
from .coordinator import Coordinator, RedundantJob
from .results import ClusterOutcome, ExperimentResult, JobOutcome
from .schemes import TargetSelector, geometric_bias_weights, get_scheme


#: a fitted calibration: Lublin params, or a mean node count
Calibration = Union[LublinParams, float]


class CalibrationKey(NamedTuple):
    """One load-calibration fit and every input it depends on."""

    #: ``"lublin"``: the ``runtime_scale`` fit of :func:`scaled_for_load`;
    #: ``"nodes"``: the mean node count a service regime is scaled by
    kind: str
    base: LublinParams
    reference_nodes: int
    #: target offered load (``"lublin"`` only)
    rho: Optional[float] = None


class CalibrationMemo:
    """Bounded, keyed memo of the load-calibration Monte-Carlo fits.

    Each fit draws from a pinned stream, so its value is a pure function
    of its :class:`CalibrationKey` — observationally pure, like
    ``functools.lru_cache`` — and a table computed in one process is
    valid in any other.  The process pool relies on that: it fits the
    calibrations of a grid's pending tasks once in the parent
    (:func:`calibration_table`) and installs them in every worker
    (:meth:`install`).  At most ``maxsize`` keys are kept, least
    recently used first out.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._table: OrderedDict[CalibrationKey, Calibration] = OrderedDict()
        # service workers run tasks on threads that share this memo
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._table)

    def get(self, key: CalibrationKey) -> Optional[Calibration]:
        with self._lock:
            value = self._table.get(key)
            if value is not None:
                self._table.move_to_end(key)
            return value

    def put(self, key: CalibrationKey, value: Calibration) -> None:
        with self._lock:
            self._table[key] = value
            self._table.move_to_end(key)
            while len(self._table) > self.maxsize:
                self._table.popitem(last=False)

    def install(self, table: Mapping[CalibrationKey, Calibration]) -> None:
        """Adopt calibrations fitted elsewhere (a pool worker's parent)."""
        for key, value in table.items():
            self.put(key, value)

    def clear(self) -> None:
        with self._lock:
            self._table.clear()


#: this process's load calibrations (pool workers get the parent's)
CALIBRATIONS = CalibrationMemo(maxsize=128)


def _calibration(key: CalibrationKey) -> Calibration:
    """The memoised fit for ``key``, run here on a miss."""
    value = CALIBRATIONS.get(key)
    if value is None:
        if key.kind == "lublin":
            assert key.rho is not None
            value = scaled_for_load(key.rho, key.reference_nodes, key.base)
        else:
            value = regimes.empirical_mean_nodes(key.base, key.reference_nodes)
        CALIBRATIONS.put(key, value)
    return value


@lru_cache(maxsize=32)
def _cached_streams(
    seed: int,
    replication: int,
    node_counts: "tuple[int, ...]",
    duration: float,
    params: "tuple[LublinParams, ...]",
    estimates: str,
    adoption_probability: float,
    regime: Optional[regimes.ServiceRegime] = None,
) -> "tuple[list[StreamJob], ...]":
    """Memoised per-replication workload streams.

    The streams implement common random numbers: they depend only on the
    seed, the replication and the workload knobs listed here — never on
    the redundancy scheme, targets, faults or latencies.  A scheme
    comparison therefore re-simulates the *same* stream once per scheme,
    and regenerating it (Lublin sampling is a per-job Python loop) used
    to be ~10%% of every simulation.  Safe to share because
    :class:`~repro.workload.stream.StreamJob` is frozen and consumers
    only read the lists.

    The memo outlives a grid on purpose: the key holds no algorithm, so
    a process that runs several grids over one workload (``tab1`` runs
    EASY, CBF and FCFS grids in turn) generates each stream once.  The
    memory it holds is bounded by ``maxsize``, and
    :class:`~repro.workload.stream.StreamJob` uses slots to keep each
    entry small.
    """
    return tuple(
        generate_platform_streams(
            RngFactory(seed),
            replication,
            list(node_counts),
            duration,
            params_per_cluster=list(params),
            estimate_model=make_estimate_model(estimates),
            adoption_probability=adoption_probability,
            regime=regime,
        )
    )


def _resolve_node_counts(
    config: ExperimentConfig, factory: RngFactory, replication: int
) -> list[int]:
    if config.heterogeneous:
        rng = factory.generator("rep", replication, "platform")
        return [
            int(rng.choice(HETEROGENEOUS_NODE_CHOICES))
            for _ in range(config.n_clusters)
        ]
    if isinstance(config.nodes_per_cluster, int):
        return [config.nodes_per_cluster] * config.n_clusters
    return list(config.nodes_per_cluster)


def _base_params(config: ExperimentConfig) -> LublinParams:
    base = LublinParams()
    if config.mean_interarrival is not None:
        base = base.with_mean_interarrival(config.mean_interarrival)
    return base


def _calibration_key(
    config: ExperimentConfig,
    node_counts: list[int],
    regime: Optional[regimes.ServiceRegime],
) -> Optional[CalibrationKey]:
    """The one load calibration a run of ``config`` needs, if any.

    Without a service regime that is Lublin's ``runtime_scale`` fit.  A
    regime replaces the runtime marginal, so ``runtime_scale`` is inert
    and the regime is scaled by the Lublin mean node count instead.
    Both fits target the homogeneous reference cluster (the mean node
    count); on heterogeneous platforms per-cluster arrival rates still
    vary, so ``offered_load`` is the *reference* load there.
    """
    if config.offered_load is None:
        return None
    reference_nodes = int(round(np.mean(node_counts)))
    if regime is None:
        return CalibrationKey(
            "lublin", _base_params(config), reference_nodes,
            config.offered_load,
        )
    return CalibrationKey("nodes", _base_params(config), reference_nodes)


def calibration_table(
    tasks: Iterable[tuple[ExperimentConfig, int]],
) -> dict[CalibrationKey, Calibration]:
    """Fit, through :data:`CALIBRATIONS`, what these ``(config,
    replication)`` runs need; return the fits as a table to install."""
    table: dict[CalibrationKey, Calibration] = {}
    for config, replication in tasks:
        node_counts = _resolve_node_counts(
            config, RngFactory(config.seed), replication
        )
        key = _calibration_key(
            config, node_counts,
            regimes.make_service_regime(config.service_regime),
        )
        if key is not None and key not in table:
            table[key] = _calibration(key)
    return table


def _resolve_regime(
    config: ExperimentConfig, node_counts: list[int]
) -> Optional[regimes.ServiceRegime]:
    """Resolve and load-calibrate the config's service regime (if any)."""
    regime = regimes.make_service_regime(config.service_regime)
    key = _calibration_key(config, node_counts, regime)
    if regime is None or key is None:
        return regime
    assert config.offered_load is not None
    return regimes.regime_scaled_for_load(
        regime, config.offered_load, key.reference_nodes, key.base,
        mean_nodes=cast(float, _calibration(key)),
    )


def _resolve_workload_params(
    config: ExperimentConfig,
    factory: RngFactory,
    replication: int,
    node_counts: list[int],
    calibrate_load: bool = True,
) -> list[LublinParams]:
    base = _base_params(config)
    # Skipped when a service regime is active: the regime carries its
    # own calibration (_resolve_regime).
    key = _calibration_key(config, node_counts, None)
    if calibrate_load and key is not None:
        base = cast(LublinParams, _calibration(key))
    if not config.heterogeneous:
        return [base] * config.n_clusters
    rng = factory.generator("rep", replication, "iat")
    lo, hi = config.interarrival_range
    return [
        base.with_mean_interarrival(float(rng.uniform(lo, hi)))
        for _ in range(config.n_clusters)
    ]


def _job_outcome(job: RedundantJob) -> JobOutcome:
    winner = job.winner
    assert winner is not None and winner.end_time is not None, (
        f"job {job.job_id} did not complete"
    )
    local = job.requests[0]
    predicted_local = None
    if local.predicted_start_at_submit is not None:
        predicted_local = local.predicted_start_at_submit - job.spec.arrival
    predictions = [
        r.predicted_start_at_submit - job.spec.arrival
        for r in job.requests
        if r.predicted_start_at_submit is not None
    ]
    predicted_min = min(predictions) if predictions else None
    return JobOutcome(
        job_id=job.job_id,
        origin=job.spec.origin,
        winner_cluster=winner.cluster.cluster.index,
        nodes=job.spec.nodes,
        runtime=job.spec.runtime,
        requested_time=job.spec.requested_time,
        submit_time=job.spec.arrival,
        start_time=winner.start_time,
        end_time=winner.end_time,
        uses_redundancy=job.uses_redundancy,
        n_copies=job.n_copies,
        predicted_wait_local=predicted_local,
        predicted_wait_min=predicted_min,
    )


@declared_pure
def run_single(
    config: ExperimentConfig,
    replication: int = 0,
    check_invariants: bool = False,
    tracer: Optional[TraceRecorder] = None,
    auditor: Optional[InvariantAuditor] = None,
    online: bool = True,
    probe: "Optional[ProbeSampler]" = None,
) -> ExperimentResult:
    """Run one replication of ``config`` and return its outcomes.

    ``check_invariants`` additionally audits node accounting and the
    first-start-wins protocol after the run (used by tests).

    ``tracer`` optionally attaches a lifecycle-event recorder (see
    :class:`repro.obs.trace.TraceRecorder`) to every scheduler and the
    coordinator.  The default ``None`` keeps tracing a strict no-op:
    no recorder is allocated, no RNG draws are added, and the simulated
    trajectory is bit-identical to an untraced run.

    ``auditor`` optionally attaches a runtime invariant auditor (see
    :class:`repro.sanitize.auditor.InvariantAuditor`) to the kernel,
    every scheduler and the coordinator, and runs its end-of-run audit
    after :meth:`~repro.core.coordinator.Coordinator.finalize`.  Same
    strict-no-op discipline as ``tracer`` when ``None``.

    ``online`` (default on) attaches the O(1)-memory streaming
    estimators of :mod:`repro.obs.stream` to the coordinator, which
    records completions as they happen and, after ``finalize``,
    replays them into the estimators once, in completion order; their
    snapshot is stored as ``result.online_metrics`` and the replay's
    host time as ``phase_timings["online_s"]`` (its own phase, between
    ``simulate_s`` and ``aggregate_s``).  The estimators add no events
    and draw no RNG, so the trajectory — every other result field — is
    bit-identical either way; ``online=False`` registers no hooks at
    all, leaves ``online_metrics`` as ``None`` and records no
    ``online_s``.

    ``probe`` optionally attaches a sim-time state sampler (see
    :class:`repro.obs.probes.ProbeSampler`); the sampler's rows are the
    caller's to collect.  ``None`` (the default) schedules nothing.
    """
    t0 = time.perf_counter()
    factory = RngFactory(config.seed)
    sim = Simulator()
    node_counts = _resolve_node_counts(config, factory, replication)
    platform = Platform(
        sim, node_counts, config.algorithm, config.scheduler_kwargs
    )
    if tracer is not None:
        platform.attach_tracer(tracer)
    if auditor is not None:
        sim.auditor = auditor
        platform.attach_auditor(auditor)
    regime = _resolve_regime(config, node_counts)
    params = _resolve_workload_params(
        config, factory, replication, node_counts,
        calibrate_load=regime is None,
    )
    streams = _cached_streams(
        config.seed,
        replication,
        tuple(node_counts),
        config.duration,
        tuple(params),
        config.estimates,
        config.adoption_probability,
        regime,
    )
    scheme = get_scheme(config.scheme)
    weights = (
        geometric_bias_weights(config.n_clusters, config.target_bias_ratio)
        if config.target_bias_ratio is not None
        else None
    )
    selector = TargetSelector(
        scheme,
        node_counts,
        rng=factory.generator("rep", replication, "targets"),
        cluster_weights=weights,
        placement=config.placement,
    )
    injector = None
    if config.faults is not None and config.faults.enabled:
        injector = FaultInjector(
            config.faults, factory.generator("rep", replication, "faults")
        )
    online_metrics = None
    if online:
        # Runtime import: obs.stream is dependency-free, while this
        # module is imported *by* repro.obs — a top-level import either
        # way would be circular.
        from ..obs.stream import OnlineMetrics

        online_metrics = OnlineMetrics()
    coordinator = Coordinator(
        sim,
        platform,
        cancellation_latency=config.cancellation_latency,
        remote_inflation=config.remote_inflation,
        fault_injector=injector,
        tracer=tracer,
        auditor=auditor,
        policy=config.cancellation_policy,
        online=online_metrics,
    )
    if probe is not None:
        probe.install(sim, platform, coordinator)
    if injector is not None:
        # Outages can only *begin* inside the submission window; an
        # outage near the edge may extend past it (and resolve during a
        # drain).
        injector.install(sim, platform, coordinator, horizon=config.duration)
    t_generated = time.perf_counter()
    for spec in merge_streams(streams):
        targets = selector.choose(spec.origin, spec.nodes, spec.uses_redundancy)
        coordinator.schedule_job(spec, targets)
    if config.drain:
        sim.run()
    else:
        sim.run(until=config.duration)
    # Purge losers whose delayed cancellation was scheduled past the
    # horizon (a no-op at zero latency without faults).
    coordinator.finalize()
    t_simulated = time.perf_counter()
    coordinator.replay_online()  # a no-op unless online
    t_online = time.perf_counter()

    if auditor is not None:
        auditor.final_check(platform, coordinator)
    if check_invariants:
        platform.check_invariants()
        coordinator.check_invariants()
    if config.drain:
        # A job abandoned to faults (every copy lost, none started) can
        # legitimately never finish; only jobs still holding scheduler
        # state indicate a deadlock.  Without faults the two sets are
        # identical, preserving the original check exactly.
        stuck = [
            j
            for j in coordinator.unfinished_jobs()
            if any(r.is_active for r in j.requests)
        ]
        if stuck:
            raise RuntimeError(
                f"{len(stuck)} jobs never completed — simulation deadlock "
                f"(first: job {stuck[0].job_id})"
            )

    completed = [j for j in coordinator.jobs if j.completed]
    result = ExperimentResult(
        scheme=config.scheme,
        algorithm=config.algorithm,
        n_clusters=config.n_clusters,
        replication=replication,
        jobs=[_job_outcome(j) for j in completed],
        n_submitted_jobs=len(coordinator.jobs),
        clusters=[
            ClusterOutcome(
                cluster=c.index,
                total_nodes=c.total_nodes,
                submitted=s.stats.submitted,
                cancelled=s.stats.cancelled,
                started=s.stats.started,
                completed=s.stats.completed,
                max_queue_length=s.stats.max_queue_length,
                dropped=s.stats.dropped,
                backfilled=s.stats.backfilled,
            )
            for c, s in zip(platform.clusters, platform.schedulers)
        ],
        total_requests=coordinator.total_requests,
        total_cancellations=coordinator.total_cancellations,
        lost_cancellations=coordinator.lost_cancellations,
        failed_submissions=coordinator.failed_submissions,
        resubmissions=coordinator.resubmissions,
        abandoned_jobs=coordinator.abandoned_jobs(),
        outages=injector.outages_started if injector is not None else 0,
        wasted_node_seconds=coordinator.wasted_node_seconds(sim.now),
        wall_time_s=time.perf_counter() - t0,
        events_executed=sim.events_executed,
        heap_compactions=sim.compactions,
        phase_timings={
            "generate_s": t_generated - t0,
            "simulate_s": t_simulated - t_generated,
            "aggregate_s": time.perf_counter() - t_online,
        },
        online_metrics=(
            online_metrics.to_dict() if online_metrics is not None else None
        ),
    )
    if online_metrics is not None:
        result.phase_timings["online_s"] = t_online - t_simulated
    return result
