"""Tests for run manifests."""

import json

import pytest

from repro.core.cache import CACHE_SCHEMA_VERSION, config_fingerprint
from repro.core.config import ExperimentConfig
from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    build_manifest,
    describe_config,
)


def cfg(**overrides):
    defaults = dict(scheme="R2", n_clusters=3, duration=300.0, seed=7)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestBuild:
    def test_records_environment_and_configs(self):
        m = build_manifest([cfg(), cfg(scheme="ALL")], n_replications=5,
                           n_workers=4, wall_time_s=1.5)
        assert m.schema == MANIFEST_SCHEMA_VERSION
        assert m.cache_schema_version == CACHE_SCHEMA_VERSION
        assert m.python and m.platform and m.rng_derivation
        assert m.n_replications == 5 and m.n_workers == 4
        assert [c["scheme"] for c in m.configs] == ["R2", "ALL"]
        assert m.configs[0]["fingerprint"] == config_fingerprint(cfg())

    def test_records_numpy_version(self):
        import numpy as np

        assert build_manifest([cfg()], n_replications=1).numpy == (
            np.__version__
        )

    def test_describe_config(self):
        d = describe_config(cfg(), index=3)
        assert d["index"] == 3
        assert d["scheme"] == "R2"
        assert d["seed"] == 7
        assert len(d["fingerprint"]) == 64  # sha256 hex


class TestRoundTrip:
    def test_write_load(self, tmp_path):
        m = build_manifest([cfg()], n_replications=2,
                           command=["repro", "trace", "record"],
                           extra={"n_trace_events": 10})
        path = m.write(tmp_path / "manifest.json")
        loaded = RunManifest.load(path)
        assert loaded == m

    def test_manifest_without_numpy_still_loads(self):
        d = build_manifest([cfg()], n_replications=1).to_dict()
        del d["numpy"]
        assert RunManifest.from_dict(d).numpy is None

    def test_dict_carries_kind(self):
        m = build_manifest([cfg()], n_replications=1)
        d = m.to_dict()
        assert d["kind"] == "repro-manifest"
        # JSON-serialisable end to end
        assert json.loads(m.to_json())["kind"] == "repro-manifest"

    def test_rejects_foreign_payload(self):
        with pytest.raises(ValueError, match="not a repro manifest"):
            RunManifest.from_dict({"kind": "something-else"})

    def test_rejects_future_schema(self):
        m = build_manifest([cfg()], n_replications=1)
        payload = m.to_dict()
        payload["schema"] = 999
        with pytest.raises(ValueError, match="unsupported manifest schema"):
            RunManifest.from_dict(payload)
