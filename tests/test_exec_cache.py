"""Tests for the content-addressed cell cache (repro.exec.cache)."""

from __future__ import annotations

import json

import pytest

from repro.core import HybridConfig
from repro.exec import CellCache, CellSpec, cell_key, code_fingerprint
from repro.exec import cache as cache_mod
from repro.experiments import CellResult, Scale

TINY = Scale(n_peers=40, n_keys=80, n_lookups=80, seed=1)


def _spec(**changes) -> CellSpec:
    return CellSpec(HybridConfig(**changes), TINY)


def _result(**overrides) -> CellResult:
    base = dict(
        p_s=0.3,
        failure_ratio=0.1 + 0.2,  # deliberately non-representable exactly
        mean_latency=3121.8109594982875,
        median_latency=1e-17,
        connum=17056,
        mean_contacts=42.64,
        successes=400,
        failures=0,
        n_t_peers=84,
        n_s_peers=36,
    )
    base.update(overrides)
    return CellResult(**base)


class TestKey:
    def test_stable_across_calls(self):
        assert cell_key(_spec(p_s=0.4)) == cell_key(_spec(p_s=0.4))

    def test_sensitive_to_every_input(self):
        base = cell_key(_spec(p_s=0.4))
        assert cell_key(_spec(p_s=0.5)) != base
        assert cell_key(_spec(p_s=0.4, ttl=6)) != base
        assert cell_key(CellSpec(HybridConfig(p_s=0.4), TINY.with_seed(2))) != base
        assert (
            cell_key(CellSpec(HybridConfig(p_s=0.4), TINY, crash_fraction=0.1)) != base
        )

    def test_tag_and_system_out_are_not_identity(self):
        # Identical cells declared by different experiments must collide
        # (that is the dedup) regardless of labelling.
        assert cell_key(_spec(p_s=0.4)) == cell_key(
            CellSpec(HybridConfig(p_s=0.4), TINY, tag="fig5a", system_out={})
        )

    def test_code_fingerprint_is_part_of_the_key(self, monkeypatch):
        before = cell_key(_spec(p_s=0.4))
        monkeypatch.setattr(cache_mod, "_FINGERPRINT", "0" * 64)
        assert cell_key(_spec(p_s=0.4)) != before

    def test_fingerprint_shape(self):
        fp = code_fingerprint()
        assert len(fp) == 64
        int(fp, 16)  # hex


class TestCellCache:
    def test_miss_then_roundtrip(self, tmp_path):
        cache = CellCache(tmp_path)
        spec = _spec(p_s=0.3)
        assert cache.get(spec) is None
        result = _result()
        cache.put(spec, result)
        # Exact dataclass equality -- floats must survive bit-for-bit.
        assert cache.get(spec) == result

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = CellCache(tmp_path)
        cache.put(_spec(p_s=0.3), _result())
        leftovers = [p for p in tmp_path.rglob("*") if ".tmp." in p.name]
        assert leftovers == []

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = CellCache(tmp_path)
        spec = _spec(p_s=0.3)
        cache.put(spec, _result())
        path = cache.path_for(spec)
        path.write_text("{ not json")
        assert cache.get(spec) is None
        assert not path.exists()

    def test_schema_drift_is_a_miss(self, tmp_path):
        cache = CellCache(tmp_path)
        spec = _spec(p_s=0.3)
        cache.put(spec, _result())
        path = cache.path_for(spec)
        payload = json.loads(path.read_text())
        payload["result"]["bogus_field"] = 1
        path.write_text(json.dumps(payload))
        assert cache.get(spec) is None

    def test_env_override_sets_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_CACHE", str(tmp_path / "elsewhere"))
        assert CellCache().root == tmp_path / "elsewhere"

    def test_default_root_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CELL_CACHE", raising=False)
        root = CellCache().root
        assert root.name == "repro-cells"
        assert root.parent.name == ".cache"

    def test_entries_fan_out_by_key_prefix(self, tmp_path):
        cache = CellCache(tmp_path)
        spec = _spec(p_s=0.3)
        cache.put(spec, _result())
        path = cache.path_for(spec)
        assert path.parent.parent == tmp_path
        assert path.parent.name == path.stem[:2]


class TestCellResultRoundtrip:
    def test_exact_equality_through_json(self):
        result = _result()
        wire = json.loads(json.dumps(result.to_dict()))
        assert CellResult.from_dict(wire) == result

    def test_unknown_field_rejected(self):
        data = _result().to_dict()
        data["extra"] = 1
        with pytest.raises(ValueError, match="unknown"):
            CellResult.from_dict(data)

    def test_missing_field_rejected(self):
        data = _result().to_dict()
        del data["connum"]
        with pytest.raises(ValueError, match="missing"):
            CellResult.from_dict(data)
