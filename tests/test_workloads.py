"""Tests for workload generators and churn schedules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads import (
    ChurnEvent,
    KeyWorkload,
    PoissonChurn,
    interest_keys,
    zipf_weights,
)


class TestZipf:
    def test_uniform_when_s_zero(self):
        w = zipf_weights(10, 0.0)
        assert np.allclose(w, 0.1)

    def test_skewed_when_s_positive(self):
        w = zipf_weights(10, 1.2)
        assert w[0] > w[-1]
        assert w.sum() == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)
        with pytest.raises(ValueError):
            zipf_weights(5, -1.0)


class TestKeyWorkload:
    def test_uniform_factory(self, rng):
        wl = KeyWorkload.uniform(100, [1, 2, 3], rng)
        assert len(wl) == 100
        assert len(set(wl.keys)) == 100
        assert set(wl.originators) <= {1, 2, 3}

    def test_store_plan_parallel(self, rng):
        wl = KeyWorkload.uniform(10, [5], rng)
        plan = wl.store_plan()
        assert len(plan) == 10
        assert all(origin == 5 for origin, _, _ in plan)

    def test_sample_lookups_respects_universe(self, rng):
        wl = KeyWorkload.uniform(20, [1, 2], rng)
        pairs = wl.sample_lookups(50, [7, 8, 9])
        assert len(pairs) == 50
        keys = set(wl.keys)
        for origin, key in pairs:
            assert origin in (7, 8, 9)
            assert key in keys

    def test_zipf_lookups_prefer_head(self, rng):
        wl = KeyWorkload.uniform(50, [1], rng, zipf_s=1.5)
        pairs = wl.sample_lookups(2000, [1])
        counts = {}
        for _, key in pairs:
            counts[key] = counts.get(key, 0) + 1
        head = counts.get(wl.keys[0], 0)
        tail = counts.get(wl.keys[-1], 0)
        assert head > tail

    def test_mismatched_lists_rejected(self, rng):
        with pytest.raises(ValueError):
            KeyWorkload(keys=["a"], originators=[1, 2], rng=rng)

    def test_interest_keys_format(self):
        keys = interest_keys("music", 3)
        assert keys == ["music:item-0", "music:item-1", "music:item-2"]
        with pytest.raises(ValueError):
            interest_keys("bad:cat", 2)

    def test_with_interests_locality(self, rng):
        peers = {"music": [1, 2], "video": [3, 4]}
        wl = KeyWorkload.with_interests(
            ["music", "video"], 50, peers, rng, locality=1.0
        )
        for origin, key in zip(wl.originators, wl.keys):
            cat = key.partition(":")[0]
            assert origin in peers[cat]


class TestChurnSchedules:
    def test_poisson_generates_sorted_events(self, rng):
        churn = PoissonChurn(join_rate=0.01, mean_lifetime=5_000.0)
        events = churn.generate(20_000.0, existing=[1, 2, 3], rng=rng)
        times = [e.time for e in events]
        assert times == sorted(times)
        assert all(0 <= t < 20_000.0 for t in times)
        assert any(e.kind == "join" for e in events)

    def test_poisson_validation(self):
        with pytest.raises(ValueError):
            PoissonChurn(join_rate=0.0, mean_lifetime=1.0)
        with pytest.raises(ValueError):
            PoissonChurn(join_rate=1.0, mean_lifetime=0.0)
        with pytest.raises(ValueError):
            PoissonChurn(join_rate=1.0, mean_lifetime=1.0, crash_probability=2.0)

    def test_crash_probability_extremes(self, rng):
        all_crash = PoissonChurn(0.01, 2_000.0, crash_probability=1.0)
        events = all_crash.generate(30_000.0, existing=[1, 2, 3, 4, 5], rng=rng)
        departures = [e for e in events if e.kind != "join"]
        assert departures and all(e.kind == "crash" for e in departures)
