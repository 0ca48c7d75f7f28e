"""Bypass-link tests (Section 5.4)."""

from __future__ import annotations

import pytest

from repro.core import HybridConfig, HybridPeer, HybridSystem

from .conftest import build_system

BYP = dict(bypass_links=True, bypass_lifetime=500_000.0)


def populate_and_lookup(system, n=120, rounds=2):
    peers = [p.address for p in system.alive_peers()]
    system.populate([(peers[i % len(peers)], f"k{i}", i) for i in range(n)])
    alive = [p.address for p in system.alive_peers()]
    for _ in range(rounds):
        system.run_lookups([(alive[(i * 7) % len(alive)], f"k{i}") for i in range(n)])


class TestLinkCreation:
    def test_links_appear_after_cross_network_traffic(self):
        system = build_system(p_s=0.8, n_peers=40, **BYP)
        populate_and_lookup(system)
        assert any(p.bypass for p in system.alive_peers())

    def test_rule1_degree_budget_respected(self):
        system = build_system(p_s=0.8, n_peers=40, delta=3, **BYP)
        populate_and_lookup(system)
        for p in system.alive_peers():
            if p.bypass:
                assert p.tree_degree() + len(p.bypass) <= system.config.delta

    def test_no_links_within_own_snetwork(self):
        system = build_system(p_s=0.8, n_peers=40, **BYP)
        populate_and_lookup(system)
        peers = {p.address: p for p in system.alive_peers()}
        for p in system.alive_peers():
            for target in p.bypass:
                other = peers.get(target)
                if other is not None:
                    assert other.p_id != p.p_id, "bypass inside own s-network"

    def test_disabled_by_default(self):
        system = build_system(p_s=0.8, n_peers=30)
        populate_and_lookup(system, n=60, rounds=1)
        # Off means not composed: no table, and a StoreAck would be loud.
        assert system.peer_class is HybridPeer
        assert all(not hasattr(p, "bypass") for p in system.alive_peers())


class TestExpiry:
    def test_idle_links_expire(self):
        system = build_system(
            p_s=0.8, n_peers=40, bypass_links=True, bypass_lifetime=5_000.0
        )
        populate_and_lookup(system, rounds=1)
        assert any(p.bypass for p in system.alive_peers())
        system.settle(20_000.0)
        # Lazy pruning: ask each peer for a target, which prunes.
        for p in system.alive_peers():
            p.bypass_target_for(0)
        assert all(not p.bypass for p in system.alive_peers())

    def test_use_refreshes_expiry(self, engine):
        from repro.enhance.bypass import BypassLink

        system = build_system(p_s=0.8, n_peers=20, **BYP)
        peer = system.s_peers()[0]
        peer.bypass[999] = BypassLink(0, 10, system.engine.now + 1_000.0)
        # Using the link pushes expiry forward.
        assert peer.bypass_target_for(5) == 999
        assert peer.bypass[999].expires_at > system.engine.now + 1_000.0 - 1e-9


class TestSemantics:
    def test_correctness_unchanged_with_bypass(self):
        """Bypass is an optimisation: same lookups must still succeed."""
        system = build_system(p_s=0.8, n_peers=40, ttl=8, **BYP)
        populate_and_lookup(system, n=120, rounds=2)
        assert system.query_stats().failure_ratio == 0.0

    def test_second_round_uses_bypass(self):
        system = build_system(p_s=0.8, n_peers=40, ttl=8, **BYP)
        populate_and_lookup(system, n=120, rounds=2)
        via_bypass = sum(1 for r in system.queries.records() if r.via_bypass)
        assert via_bypass > 0

    def test_bypass_reduces_ring_traffic(self):
        def contacts(bypass: bool, n_peers: int, seed: int, n: int):
            system = build_system(
                p_s=0.85, n_peers=n_peers, ttl=8, seed=seed,
                bypass_links=bypass, bypass_lifetime=500_000.0,
            )
            peers = [p.address for p in system.alive_peers()]
            system.populate(
                [(peers[i % len(peers)], f"k{i}", i) for i in range(n)]
            )
            alive = [p.address for p in system.alive_peers()]
            # Repeat the same remote lookups so links get reused.
            for _ in range(3):
                system.run_lookups(
                    [(alive[(i * 7) % len(alive)], f"k{i}") for i in range(n)]
                )
            stats = system.query_stats()
            assert stats.failure_ratio == 0.0
            return stats.connum

        # A small system, then the bypass ablation at Scale.quick() size.
        for case in ((40, 13, 60), (120, 34, 400)):
            assert contacts(True, *case) < contacts(False, *case)

    def test_stale_bypass_retries_via_ring(self):
        """Kill a bypass target silently; the lookup must still resolve
        through the t-network retry."""
        system = build_system(p_s=0.8, n_peers=40, ttl=8,
                              lookup_timeout=5_000.0, **BYP)
        populate_and_lookup(system, n=100, rounds=1)
        linked = [p for p in system.alive_peers() if p.bypass]
        assert linked
        # Crash bypass targets that are *leaf* s-peers (no heartbeats, so
        # links stay stale; leaves keep the flood trees intact -- any
        # failure would be the bypass path not falling back).
        targets = {t for p in linked for t in p.bypass}
        leaves = {p.address for p in system.s_peers() if not p.children}
        system.crash_peers(targets & leaves)
        alive = [p.address for p in system.alive_peers()]
        surviving_keys = []
        for p in system.alive_peers():
            surviving_keys.extend(i.key for i in p.database)
        pairs = [(alive[i % len(alive)], k) for i, k in enumerate(surviving_keys)]
        system.run_lookups(pairs)
        stats = system.query_stats()
        assert stats.failure_ratio == 0.0
