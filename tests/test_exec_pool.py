"""Tests for the parallel cell executor (repro.exec.pool)."""

from __future__ import annotations

import io
import re

import pytest

from repro.core import HybridConfig
from repro.exec import (
    CellCache,
    CellExecutionError,
    CellExecutor,
    CellSpec,
    resolve_jobs,
)
from repro.experiments import Scale, run_cell
from repro.obs import MetricsRegistry

TINY = Scale(n_peers=30, n_keys=60, n_lookups=60, seed=7)

SPECS = [
    CellSpec(HybridConfig(p_s=0.2), TINY),
    CellSpec(HybridConfig(p_s=0.6), TINY),
    CellSpec(HybridConfig(p_s=0.9), TINY, crash_fraction=0.2),
]


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5

    def test_cpu_count_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) >= 1

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs(None)

    @pytest.mark.parametrize("bad", [0, -2])
    def test_invalid_explicit_rejected(self, bad):
        with pytest.raises(ValueError):
            resolve_jobs(bad)


class TestMap:
    def test_serial_matches_direct_run_cell(self):
        direct = [
            run_cell(s.config, s.scale, crash_fraction=s.crash_fraction)
            for s in SPECS
        ]
        assert CellExecutor.serial().map(SPECS) == direct

    def test_pooled_preserves_order_and_values(self):
        serial = CellExecutor.serial().map(SPECS)
        pooled = CellExecutor(jobs=2).map(SPECS)
        assert pooled == serial

    def test_cache_hits_counted_and_exact(self, tmp_path):
        cold = CellExecutor(jobs=1, cache=CellCache(tmp_path))
        first = cold.map(SPECS)
        assert (cold.stats.executed, cold.stats.cache_hits) == (3, 0)
        warm = CellExecutor(jobs=2, cache=CellCache(tmp_path))
        second = warm.map(SPECS)
        assert (warm.stats.executed, warm.stats.cache_hits) == (0, 3)
        assert second == first

    def test_empty_spec_list(self):
        executor = CellExecutor(jobs=2)
        assert executor.map([]) == []
        assert executor.stats.cells_total == 0


class TestSystemOut:
    def test_rejected_with_multiple_jobs(self):
        spec = CellSpec(HybridConfig(), TINY, system_out={})
        with pytest.raises(ValueError, match="system_out"):
            CellExecutor(jobs=2).map([spec])

    def test_works_inline(self):
        out = {}
        spec = CellSpec(HybridConfig(), TINY, system_out=out)
        CellExecutor(jobs=1).map([spec])
        assert "system" in out

    def test_inline_system_out_cells_are_not_cached(self, tmp_path):
        cache = CellCache(tmp_path)
        spec = CellSpec(HybridConfig(), TINY, system_out={})
        CellExecutor(jobs=1, cache=cache).map([spec])
        assert cache.get(spec) is None


class TestErrors:
    # p_s=1.5 passes the dataclass but fails HybridConfig.validate(),
    # which HybridSystem.__init__ calls inside the worker.
    BAD = CellSpec(HybridConfig(p_s=1.5), TINY, tag="bad")

    def test_worker_failure_identifies_cell(self):
        with pytest.raises(CellExecutionError) as err:
            CellExecutor(jobs=2).map([SPECS[0], self.BAD])
        assert "bad" in str(err.value)
        assert "p_s must be in [0, 1]" in err.value.worker_traceback

    def test_serial_failure_raises_original(self):
        with pytest.raises(ValueError, match=r"p_s must be in \[0, 1\]"):
            CellExecutor(jobs=1).map([self.BAD])


class TestMapFn:
    def test_order_and_values(self):
        executor = CellExecutor(jobs=2)
        assert executor.map_fn(_square, [3, 1, 2], tag="sq") == [9, 1, 4]

    def test_fn_failure_labelled_by_index(self):
        with pytest.raises(CellExecutionError, match=r"boom\[1\]"):
            CellExecutor(jobs=2).map_fn(_flaky, [0, 1, 2], tag="boom")


def _square(x: int) -> int:
    return x * x


def _flaky(x: int) -> int:
    if x == 1:
        raise RuntimeError("worker exploded")
    return x


class TestObservability:
    def test_metrics_registered(self):
        registry = MetricsRegistry()
        executor = CellExecutor(jobs=1, registry=registry)
        executor.map(SPECS[:2])
        snap = registry.snapshot()
        cells = snap["repro_sweep_cells_total"]["samples"]
        by_status = {s["labels"]["status"]: s["value"] for s in cells}
        assert by_status["run"] == 2
        assert "repro_sweep_cell_seconds" in snap

    def test_summary_line_is_parseable(self):
        executor = CellExecutor(jobs=1)
        executor.map(SPECS[:1])
        match = re.fullmatch(
            r"(\d+) cells: (\d+) cache hits, (\d+) executed, "
            r"([0-9.]+)s wall \(jobs=(\d+)\)",
            executor.summary(),
        )
        assert match is not None
        assert match.group(1) == "1"

    def test_progress_stream(self):
        stream = io.StringIO()
        executor = CellExecutor(jobs=1, progress=True, stream=stream)
        executor.map(SPECS[:2])
        text = stream.getvalue()
        assert "2/2" in text
