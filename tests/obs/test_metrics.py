"""Tests for the metrics registry and result aggregation."""

import pytest

from repro.core.config import ExperimentConfig
from repro.core.experiment import run_single
from repro.obs.metrics import (
    RUN_COUNTER_NAMES,
    MetricsRegistry,
    aggregate_results,
    run_counters,
)


class TestRegistry:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        assert reg.counter("a") == 5
        assert reg.counter("missing") == 0

    def test_gauges_last_value_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("g", 1)
        reg.set_gauge("g", 9)
        assert reg.gauge("g") == 9

    def test_timer_accumulates(self):
        reg = MetricsRegistry()
        with reg.timer("phase"):
            pass
        with reg.timer("phase"):
            pass
        assert reg.timing("phase") >= 0.0
        assert "phase" in reg.snapshot()["timings_s"]

    def test_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("x", 1)
        b.inc("x", 2)
        b.add_time("t", 0.5)
        b.set_gauge("g", 3)
        a.merge(b)
        snap = a.snapshot()
        assert snap["counters"]["x"] == 3
        assert snap["timings_s"]["t"] == pytest.approx(0.5)
        assert snap["gauges"]["g"] == 3

    def test_snapshot_sorted_and_json_ready(self):
        import json

        reg = MetricsRegistry()
        reg.inc("zeta")
        reg.inc("alpha")
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["alpha", "zeta"]
        json.dumps(snap)  # must not raise


class TestRunCounters:
    @pytest.fixture(scope="class")
    def result(self):
        cfg = ExperimentConfig(
            scheme="ALL", n_clusters=3, nodes_per_cluster=16,
            duration=300.0, drain=True, seed=11,
        )
        return run_single(cfg)

    def test_all_standard_names_present(self, result):
        counters = run_counters(result)
        assert set(counters) == set(RUN_COUNTER_NAMES)

    def test_values_mirror_result(self, result):
        counters = run_counters(result)
        assert counters["submissions"] == result.total_requests
        assert counters["cancellations"] == result.total_cancellations
        assert counters["backfills"] == result.total_backfills
        assert counters["events_executed"] == result.events_executed > 0

    def test_aggregate_sums_and_counts_runs(self, result):
        reg = aggregate_results([result, result])
        snap = reg.snapshot()
        assert snap["counters"]["runs"] == 2
        assert snap["counters"]["submissions"] == 2 * result.total_requests
        # phase timings fold in too
        assert snap["timings_s"]["simulate_s"] > 0.0


class TestEngineMetrics:
    def test_run_grid_reports_cache_accounting(self, tmp_path):
        from repro.core.cache import ResultCache
        from repro.core.orchestrator import run_grid

        cfg = ExperimentConfig(
            scheme="R2", n_clusters=2, nodes_per_cluster=16,
            duration=200.0, drain=True, seed=5,
        )
        cache = ResultCache(tmp_path)
        cold = MetricsRegistry()
        run_grid([cfg], 2, cache=cache, metrics=cold)
        assert cold.counter("cache_misses") == 2
        assert cold.counter("tasks_executed") == 2
        assert cold.timing("cache_store_s") >= 0.0

        warm = MetricsRegistry()
        run_grid([cfg], 2, cache=cache, metrics=warm)
        assert warm.counter("cache_hits") == 2
        assert warm.counter("tasks_executed") == 0
