"""Recorded sweeps reproduce checked-in JSONL byte for byte.

``data/golden_trace.jsonl`` and ``data/golden_probes.jsonl`` were
recorded for the grid below (two schemes, one duplicated config, two
replications).  The serial-vs-parallel tests pin worker-count
invariance; these pin the written bytes themselves, so a change to the
shared JSONL codec or the recorded-sweep routine cannot alter a
recording unnoticed.
"""

from pathlib import Path

from repro.core.config import ExperimentConfig
from repro.obs.probes import record_probe_sweep
from repro.obs.trace import record_sweep

DATA = Path(__file__).parent / "data"


def golden_configs():
    def cfg(scheme):
        return ExperimentConfig(
            scheme=scheme, algorithm="easy", n_clusters=2,
            nodes_per_cluster=8, duration=60.0, drain=True, seed=42,
        )

    return [cfg("R2"), cfg("R3"), cfg("R2")]


def test_trace_matches_golden_bytes(tmp_path):
    results, manifest = record_sweep(golden_configs(), 2, tmp_path)
    written = (tmp_path / "trace.jsonl").read_bytes()
    assert written == (DATA / "golden_trace.jsonl").read_bytes()
    assert len(results) == 3 and results[0] == results[2]
    assert len(manifest.configs) == 2


def test_probes_match_golden_bytes(tmp_path):
    results, manifest = record_probe_sweep(
        golden_configs(), 2, tmp_path, cadence=1800.0
    )
    written = (tmp_path / "probes.jsonl").read_bytes()
    assert written == (DATA / "golden_probes.jsonl").read_bytes()
    assert len(results) == 3 and results[0] == results[2]
    assert len(manifest.configs) == 2
