"""The coordinator's end-of-run replay of the online estimators."""

from __future__ import annotations

import json

from repro.cluster.platform import Platform
from repro.core.config import ExperimentConfig
from repro.core.coordinator import Coordinator
from repro.core.experiment import run_single
from repro.obs.stream import OnlineMetrics
from repro.sim.engine import Simulator
from repro.workload.stream import StreamJob


def spec(origin: int, runtime: float, nodes: int = 8) -> StreamJob:
    return StreamJob(
        origin=origin,
        arrival=0.0,
        nodes=nodes,
        runtime=runtime,
        requested_time=runtime,
        uses_redundancy=True,
    )


def horizon_waste_run() -> tuple[Coordinator, OnlineMetrics]:
    """Cancel-on-complete run stopped while a duplicate copy still runs.

    Both clusters are idle, so both copies of job 0 start at t=0: one
    wins and the other is a duplicate start that runs beside it.  Job 1
    runs on cluster 2 alone and finishes first, before the horizon.
    """
    sim = Simulator()
    platform = Platform(sim, [8, 8, 8], algorithm="easy")
    online = OnlineMetrics()
    coord = Coordinator(
        sim, platform, policy="cancel-on-complete", online=online
    )
    coord.schedule_job(spec(origin=0, runtime=10.0), [0, 1])
    coord.schedule_job(spec(origin=2, runtime=2.0), [2])
    sim.run(until=5.0)
    return coord, online


class TestReplay:
    def test_nothing_is_observed_before_the_replay(self):
        coord, online = horizon_waste_run()
        coord.finalize()
        assert online.to_dict() == OnlineMetrics().to_dict()

    def test_horizon_waste_is_charged_once(self):
        coord, online = horizon_waste_run()
        coord.finalize()
        coord.replay_online()
        first = json.dumps(online.to_dict(), allow_nan=False)
        metrics = online.to_dict()["metrics"]
        waste = metrics["wasted_node_seconds"]
        assert waste["count"] == 1
        assert waste["total"] == 5.0 * 8  # 5 s of an 8-node duplicate
        assert metrics["stretch"]["count"] == 1  # job 1; job 0 still runs
        coord.finalize()
        coord.replay_online()
        assert json.dumps(online.to_dict(), allow_nan=False) == first

    def test_replay_finalizes_first(self):
        coord, online = horizon_waste_run()
        coord.replay_online()
        assert coord._finalized
        assert online.to_dict()["metrics"]["wasted_node_seconds"]["count"] == 1

    def test_replay_follows_finish_order_not_job_order(self):
        """Completions are recorded as they finish: job 1 before job 0."""
        sim = Simulator()
        platform = Platform(sim, [8, 8], algorithm="easy")
        online = OnlineMetrics()
        coord = Coordinator(sim, platform, online=online)
        coord.schedule_job(spec(origin=0, runtime=10.0), [0])
        coord.schedule_job(spec(origin=1, runtime=2.0), [1])
        sim.run()
        assert [r.group.job_id for r in coord._completions] == [1, 0]
        coord.replay_online()
        assert online.stats["wait"].welford.count == 2


class TestOnlineTiming:
    CONFIG = ExperimentConfig(
        n_clusters=2, nodes_per_cluster=16, duration=300.0,
        offered_load=2.0, scheme="R2", seed=7,
    )

    def test_online_s_present_iff_online(self):
        on = run_single(self.CONFIG, 0)
        off = run_single(self.CONFIG, 0, online=False)
        assert "online_s" in on.phase_timings
        assert on.phase_timings["online_s"] >= 0.0
        assert "online_s" not in off.phase_timings
