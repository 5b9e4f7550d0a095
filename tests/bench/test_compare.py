"""Tests for ``repro bench --compare`` payload diffing."""

import json

import pytest

from repro.bench.compare import (
    REGRESSION_THRESHOLD,
    compare_payloads,
    load_bench_payload,
)
from repro.cli import main


def _payload(**timings):
    return {"timings_s": timings}


def _hosted(cpu_count, python="3.11.7", platform="Linux-x86_64", **timings):
    return {
        "timings_s": timings,
        "manifest": {"cpu_count": cpu_count, "python": python,
                     "platform": platform},
    }


class TestComparePayloads:
    def test_no_regression_within_threshold(self):
        cmp = compare_payloads(
            _payload(serial=10.0, parallel=5.0),
            _payload(serial=11.0, parallel=5.9),
        )
        assert cmp.ok
        assert [r["name"] for r in cmp.rows] == ["parallel", "serial"]
        assert not cmp.missing

    def test_regression_beyond_threshold_fails(self):
        cmp = compare_payloads(
            _payload(serial=10.0), _payload(serial=12.5)
        )
        assert not cmp.ok
        assert [r["name"] for r in cmp.regressions] == ["serial"]
        assert "REGRESSION" in cmp.render()
        assert "FAIL" in cmp.render()

    def test_exact_threshold_is_not_a_regression(self):
        cmp = compare_payloads(_payload(serial=10.0), _payload(serial=12.0))
        assert cmp.ok  # new == old * (1 + 0.20): boundary passes

    def test_speedup_reported_with_negative_delta(self):
        cmp = compare_payloads(_payload(serial=10.0), _payload(serial=5.0))
        assert cmp.ok
        assert cmp.rows[0]["ratio"] == 0.5
        assert "-50.0%" in cmp.render()

    def test_missing_benchmarks_reported_not_failed(self):
        cmp = compare_payloads(
            _payload(serial=10.0, gone=1.0), _payload(serial=10.0, new=1.0)
        )
        assert cmp.ok
        assert sorted(cmp.missing) == ["gone", "new"]
        assert "only one payload" in cmp.render()

    def test_custom_threshold(self):
        old, new = _payload(serial=10.0), _payload(serial=10.5)
        assert compare_payloads(old, new, threshold=0.10).ok
        assert not compare_payloads(old, new, threshold=0.01).ok
        assert REGRESSION_THRESHOLD == 0.20

    def test_zero_old_time_regresses_as_infinite_ratio(self):
        cmp = compare_payloads(_payload(serial=0.0), _payload(serial=1.0))
        assert cmp.rows[0]["ratio"] == float("inf")
        assert not cmp.ok


class TestHostFingerprint:
    def test_same_host_keeps_the_gate(self):
        cmp = compare_payloads(_hosted(2, serial=10.0),
                               _hosted(2, serial=12.5))
        assert not cmp.host_differences
        assert [r["name"] for r in cmp.regressions] == ["serial"]
        assert "not comparable" not in cmp.render()

    def test_other_host_reports_ratios_without_failing(self):
        cmp = compare_payloads(_hosted(1, serial=6.84, parallel=8.64),
                               _hosted(2, serial=12.11, parallel=6.92))
        assert cmp.host_differences == ["cpu_count 1 -> 2"]
        assert cmp.ok and not cmp.regressions
        text = cmp.render()
        assert text.splitlines()[0] == (
            "not comparable: host differs (cpu_count 1 -> 2)"
        )
        assert "1.77x" in text and "0.80x" in text
        assert "REGRESSION" not in text and "FAIL" not in text

    def test_every_host_field_is_compared(self):
        cmp = compare_payloads(
            _hosted(2, python="3.11.7", platform="a", serial=1.0),
            _hosted(2, python="3.12.1", platform="b", serial=9.0),
        )
        assert cmp.host_differences == [
            "python 3.11.7 -> 3.12.1", "platform a -> b",
        ]
        assert cmp.ok

    def test_cli_exit_codes(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        old.write_text(json.dumps(_hosted(1, serial=6.84)))
        other = tmp_path / "other_host.json"
        other.write_text(json.dumps(_hosted(2, serial=12.11)))
        same = tmp_path / "same_host.json"
        same.write_text(json.dumps(_hosted(1, serial=12.11)))
        assert main(["bench", "--compare", str(old), str(other)]) == 0
        assert "not comparable: host differs" in capsys.readouterr().out
        assert main(["bench", "--compare", str(old), str(same)]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestLoadBenchPayload:
    def test_raw_payload(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(_payload(serial=1.0)))
        assert load_bench_payload(path)["timings_s"] == {"serial": 1.0}

    def test_trajectory_wrapper_uses_after_half(self, tmp_path):
        path = tmp_path / "BENCH_6.json"
        path.write_text(json.dumps({
            "pr": 6,
            "before": _payload(serial=9.8),
            "after": _payload(serial=7.0),
        }))
        assert load_bench_payload(path)["timings_s"] == {"serial": 7.0}

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ValueError, match="not a bench payload"):
            load_bench_payload(path)


class TestCheckedInTrajectory:
    def test_bench_6_artifact_is_loadable_and_improved(self):
        """The repo's own trajectory artifact stays well-formed."""
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        artifact = root / "BENCH_6.json"
        data = json.loads(artifact.read_text())
        assert data["pr"] == 6
        after = load_bench_payload(artifact)
        cmp = compare_payloads(data["before"], after)
        # The PR's own before/after must never read as a regression.
        assert cmp.ok
        assert after["timings_s"]["serial"] < data["before"]["timings_s"]["serial"]
