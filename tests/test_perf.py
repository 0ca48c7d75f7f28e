"""Tests for the perf instrumentation (repro.perf)."""

from __future__ import annotations

import io

from repro.perf import PROFILE_ENV, maybe_profile, profiling_enabled


class TestMaybeProfile:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        assert not profiling_enabled()
        with maybe_profile() as profiler:
            assert profiler is None

    def test_enabled_prints_stats(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV, "1")
        assert profiling_enabled()
        out = io.StringIO()
        with maybe_profile(limit=5, stream=out) as profiler:
            assert profiler is not None
            sum(range(1000))
        assert "function calls" in out.getvalue()
