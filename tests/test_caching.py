"""Tests for the popular-data caching scheme (the paper's future work)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import HybridConfig, HybridSystem
from repro.core.datastore import DataItem
from repro.enhance.caching import LruCache

from .conftest import build_system


class TestLruCache:
    def test_put_get(self):
        c = LruCache(capacity=4, ttl=100.0)
        c.put(DataItem("a", 1, 0), now=0.0)
        assert c.get("a", now=50.0).value == 1
        assert c.hits == 1

    def test_expiry(self):
        c = LruCache(capacity=4, ttl=100.0)
        c.put(DataItem("a", 1, 0), now=0.0)
        assert c.get("a", now=150.0) is None
        assert c.misses == 1
        assert len(c) == 0

    def test_hit_refreshes_ttl(self):
        c = LruCache(capacity=4, ttl=100.0)
        c.put(DataItem("a", 1, 0), now=0.0)
        c.get("a", now=90.0)  # refresh
        assert c.get("a", now=150.0) is not None

    def test_lru_eviction(self):
        c = LruCache(capacity=2, ttl=1e9)
        c.put(DataItem("a", 1, 0), now=0.0)
        c.put(DataItem("b", 2, 0), now=1.0)
        c.get("a", now=2.0)  # a is now most recent
        c.put(DataItem("c", 3, 0), now=3.0)  # evicts b
        assert c.get("b", now=4.0) is None
        assert c.get("a", now=4.0) is not None
        assert c.evictions == 1

    def test_invalidate(self):
        c = LruCache(capacity=2, ttl=1e9)
        c.put(DataItem("a", 1, 0), now=0.0)
        c.invalidate("a")
        assert c.get("a", now=1.0) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            LruCache(0, 1.0)
        with pytest.raises(ValueError):
            LruCache(1, 0.0)


def hot_key_workload(system, n_background=60, hot_rounds=4):
    """One hot key + background keys; every peer repeatedly fetches the
    hot key."""
    peers = [p.address for p in system.alive_peers()]
    items = [(peers[i % len(peers)], f"bg{i}", i) for i in range(n_background)]
    items.append((peers[0], "hot", "hot-value"))
    system.populate(items)
    pairs = []
    for _ in range(hot_rounds):
        pairs.extend((addr, "hot") for addr in peers)
    system.run_lookups(pairs, wave_size=50)
    return system.query_stats()


class TestCachingSystem:
    def test_correctness_unchanged(self):
        system = build_system(p_s=0.7, n_peers=40, ttl=8, cache_enabled=True)
        stats = hot_key_workload(system)
        assert stats.failure_ratio == 0.0

    def test_cache_spreads_hot_key_load(self):
        """The future-work goal: "distribute the load among as many
        peers as possible so that no peer is overwhelmed"."""

        def loads(cache: bool, n_peers: int, n_background: int) -> list:
            system = build_system(
                p_s=0.7, n_peers=n_peers, ttl=8, seed=15, cache_enabled=cache
            )
            hot_key_workload(system, n_background=n_background)
            return [p.answers_served for p in system.alive_peers()]

        # A small system, then the extension at Scale.quick() size.
        for case in ((40, 60), (120, 200)):
            plain, cached = loads(False, *case), loads(True, *case)
            assert max(cached) < max(plain)
            # The load moves onto surrogates; it is not merely dropped.
            assert sum(n > 0 for n in cached) >= sum(n > 0 for n in plain)

    def test_repeat_lookups_hit_caches(self):
        system = build_system(p_s=0.7, n_peers=40, ttl=8, cache_enabled=True)
        hot_key_workload(system)
        hits = sum(p.cache.hits for p in system.alive_peers() if p.cache)
        assert hits > 0
        # Multiple distinct peers served the hot key.
        servers = sum(1 for p in system.alive_peers() if p.answers_served > 0)
        assert servers > 1

    def test_cache_reduces_connum_on_repeats(self):
        def connum(cache: bool) -> int:
            system = build_system(
                p_s=0.7, n_peers=40, ttl=8, seed=16, cache_enabled=cache
            )
            return hot_key_workload(system).connum

        assert connum(True) < connum(False)

    def test_cache_disabled_by_default(self, small_system):
        assert all(p.cache is None for p in small_system.alive_peers())

    def test_origin_cache_makes_repeat_free(self):
        system = build_system(p_s=0.7, n_peers=30, ttl=8, cache_enabled=True)
        peers = [p.address for p in system.alive_peers()]
        system.populate([(peers[0], "item", 1)])
        origin = system.s_peers()[-1]
        origin.lookup("item")
        system.engine.run_while(lambda: system.queries.unresolved > 0)
        qid = origin.lookup("item")  # second time: local cache hit
        system.engine.run_while(lambda: system.queries.unresolved > 0)
        rec = system.queries.get(qid)
        assert rec.status == "success"
        assert rec.holder == origin.address  # answered by itself
        assert rec.contacts == 0
