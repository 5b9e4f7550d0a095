"""Performance microbenchmarks of the simulation substrates.

Not a paper artifact — these track the wall-clock cost of the hot paths
(event loop, availability profile, scheduler passes, workload sampling,
a full experiment) so performance regressions show up in the benchmark
history.  The paper-scale runs depend on these staying fast: its
workloads push queues into the thousands.
"""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.core.config import ExperimentConfig
from repro.core.experiment import run_single
from repro.obs.stream import ONLINE_QUANTILES, OnlineMetrics
from repro.sched import CBFScheduler, EASYScheduler
from repro.sched.job import Request
from repro.sched.profile import Profile
from repro.sim.engine import Simulator
from repro.sim.events import EventPriority
from repro.sim.rng import RngFactory
from repro.workload.lublin import LublinGenerator, LublinParams, scaled_for_load
from repro.workload.regimes import empirical_mean_nodes
from tests.obs.stream_ref import RefP2Quantile, RefWelford


def test_perf_event_loop(benchmark, scale):
    """Schedule and execute 20k interleaved events."""

    def run():
        sim = Simulator()
        count = 0

        def tick():
            nonlocal count
            count += 1

        for i in range(20_000):
            sim.at(float(i % 997), tick, EventPriority.CONTROL)
        sim.run()
        return count

    assert benchmark(run) == 20_000


def test_perf_profile_operations(benchmark, scale):
    """Reserve/find/adjust churn on a long availability profile."""

    def run():
        prof = Profile(0.0, 128, 128)
        rng = np.random.default_rng(0)
        for _ in range(1500):
            nodes = int(rng.integers(1, 64))
            duration = float(rng.uniform(10, 500))
            start = prof.find_start(nodes, duration, float(rng.uniform(0, 5000)))
            prof.reserve(start, duration, nodes)
        return len(prof)

    assert benchmark(run) > 0


def test_perf_easy_overloaded_queue(benchmark, scale):
    """Submission churn against a blocked EASY queue (the O(1)-guard path)."""

    def run():
        sim = Simulator()
        sched = EASYScheduler(sim, Cluster(0, 128))
        sched.submit(Request(nodes=128, runtime=1e9, requested_time=1e9))
        sim.run(until=0.0)
        for i in range(4000):
            sim.at(
                float(i),
                lambda: sched.submit(
                    Request(nodes=8, runtime=100.0, requested_time=100.0)
                ),
                EventPriority.SUBMIT,
            )
        sim.run(until=4000.0)
        return sched.queue_length

    assert benchmark(run) == 4000


@pytest.mark.parametrize("depth", [10, 1000])
def test_perf_cbf_backfill_pass(benchmark, scale, depth):
    """CBF scheduling passes over a queue of ``depth`` reservations.

    Sixteen running holds and the queue finish at 5-100% of their
    requested time, so each completion returns capacity early and its
    pass scans the whole queue for early starts, most of which fail —
    the Figure 5 regime, where queues reach the thousands.  Only the
    first 600 simulated seconds of passes are timed; building the queue
    is set-up.
    """

    def setup():
        sim = Simulator()
        sched = CBFScheduler(sim, Cluster(0, 128))
        rng = np.random.default_rng(depth)

        def request(nodes, requested):
            runtime = requested * float(rng.uniform(0.05, 1.0))
            return Request(nodes=nodes, runtime=runtime,
                           requested_time=requested)

        for k in range(16):
            sched.submit(request(8, 100.0 * (k + 1)))
        for _ in range(depth):
            sched.submit(request(int(rng.integers(1, 33)),
                                 float(rng.uniform(50.0, 3000.0))))
        sim.run(until=0.0)
        return (sim, sched), {}

    def run(sim, sched):
        sim.run(until=600.0)
        return sched.stats.backfilled

    backfilled = benchmark.pedantic(run, setup=setup, rounds=10)
    assert backfilled > 0


@pytest.mark.parametrize("feed", ["per_value", "replay"])
def test_perf_online_replay(benchmark, scale, feed):
    """Online estimators over a 3,600-completion run.

    ``per_value`` is the frozen one-call-per-value reference (three
    metrics, each one Welford and three P² updates per completion, as
    the coordinator's finish callback used to do); ``replay`` is the
    single end-of-run :meth:`OnlineMetrics.replay` the coordinator does
    now.  Both end in the same bits.
    """
    rng = np.random.default_rng(3600)
    waits = [float(x) for x in rng.exponential(300.0, 3600)]
    stretches = [float(x) for x in 1.0 + rng.lognormal(1.0, 2.0, 3600)]
    slowdowns = [max(1.0, x / 2.0) for x in stretches]

    def per_value():
        banks = [
            (RefWelford(), [RefP2Quantile(p) for p in ONLINE_QUANTILES])
            for _ in range(3)
        ]
        for row in zip(stretches, waits, slowdowns):
            for (welford, quantiles), x in zip(banks, row):
                welford.observe(x)
                for q in quantiles:
                    q.observe(x)
        return banks[0][1][0].value

    def replay():
        online = OnlineMetrics()
        online.replay(waits, stretches, slowdowns, [])
        return online.stats["stretch"].quantiles[0].value

    run = per_value if feed == "per_value" else replay
    median = benchmark(run)
    assert repr(median) == repr(replay())


def test_perf_lublin_sampling(benchmark, scale):
    """Draw 10k jobs from the workload model."""

    def run():
        gen = LublinGenerator(LublinParams(), 128,
                              np.random.default_rng(1))
        total = 0.0
        for _ in range(10_000):
            total += gen.sample_runtime(gen.sample_nodes())
        return total

    assert benchmark(run) > 0


@pytest.mark.parametrize("fit", ["runtime_scale", "mean_nodes"])
def test_perf_load_calibration(benchmark, scale, fit):
    """One load-calibration Monte-Carlo, unmemoised: the Lublin
    runtime-scale fit (2 x 20k jobs) or a regime's E[nodes] (20k)."""
    if fit == "runtime_scale":
        result = benchmark.pedantic(
            scaled_for_load, args=(2.0, 32), rounds=3, iterations=1
        )
        assert result.runtime_scale > 0
    else:
        result = benchmark.pedantic(
            empirical_mean_nodes, args=(LublinParams(), 32), rounds=3,
            iterations=1,
        )
        assert 1.0 <= result <= 32.0


def test_perf_full_experiment(benchmark, scale):
    """One small end-to-end drained experiment (N=4, 10 min, R2)."""
    cfg = ExperimentConfig(
        n_clusters=4, nodes_per_cluster=32, duration=600.0,
        offered_load=2.0, drain=True, scheme="R2", seed=9,
    )

    result = benchmark.pedantic(
        run_single, args=(cfg, 0), rounds=3, iterations=1
    )
    assert result.n_jobs == result.n_submitted_jobs
