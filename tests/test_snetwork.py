"""s-network protocol tests: degree-capped tree joins, connect points,
graceful leaves with subtree rejoin (Section 3.2.2)."""

from __future__ import annotations

import pytest

from repro.core import HybridConfig, HybridSystem
from repro.net.links import CapacityClass, capacity_of

from .conftest import build_system, check_ring, check_trees


def drain(system):
    system.engine.run()


class TestTreeConstruction:
    def test_deep_tree_under_small_delta(self):
        """delta=2 with many s-peers per network must create depth > 1."""
        system = build_system(p_s=0.9, n_peers=40, delta=2)
        check_trees(system)
        depths = []
        peers = {p.address: p for p in system.alive_peers()}
        for p in system.s_peers():
            d = 0
            cur = p
            while cur.role == "s":
                cur = peers[cur.cp]
                d += 1
            depths.append(d)
        assert max(depths) >= 2

    def test_larger_delta_shallower_trees(self):
        def mean_depth(delta: int) -> float:
            system = build_system(p_s=0.9, n_peers=60, delta=delta, seed=4)
            peers = {p.address: p for p in system.alive_peers()}
            depths = []
            for p in system.s_peers():
                d, cur = 0, p
                while cur.role == "s":
                    cur = peers[cur.cp]
                    d += 1
                depths.append(d)
            return sum(depths) / len(depths)

        assert mean_depth(5) <= mean_depth(2)

    def test_join_walk_respects_existing_structure(self):
        system = build_system(p_s=0.85, n_peers=40, delta=3)
        # Additional joins keep invariants.
        for _ in range(5):
            system.add_peer()
        drain(system)
        check_trees(system)

    def test_link_usage_policy_builds_valid_tree(self):
        system = build_system(p_s=0.85, n_peers=40, heterogeneity_aware=True)
        check_trees(system)

    def test_link_usage_prefers_fast_connect_points(self):
        """Under the 5.1 policy, high-capacity peers should end up with
        more children on average."""
        system = build_system(p_s=0.9, n_peers=80, heterogeneity_aware=True, seed=9)

        def mean_children(tier: CapacityClass) -> float:
            peers = [p for p in system.s_peers() if p.capacity == capacity_of(tier)]
            assert peers
            return sum(len(p.children) for p in peers) / len(peers)

        assert mean_children(CapacityClass.HIGH) > mean_children(CapacityClass.LOW)


class TestSLeave:
    def test_leaf_leave_is_clean(self):
        system = build_system(p_s=0.8, n_peers=30)
        leaf = next(p for p in system.s_peers() if not p.children)
        cp = system.peers[leaf.cp]
        system.leave_peers([leaf.address])
        drain(system)
        assert not leaf.alive
        assert leaf.address not in cp.children
        check_trees(system)

    def test_interior_leave_rejoins_subtree(self):
        system = build_system(p_s=0.9, n_peers=40, delta=2, seed=6)
        interior = next(p for p in system.s_peers() if p.children)
        children = set(interior.children)
        system.leave_peers([interior.address])
        drain(system)
        assert not interior.alive
        check_trees(system)
        # Former children are still connected (rejoined via the t-peer).
        for c in children:
            peer = system.peers[c]
            if peer.alive and peer.role == "s":
                assert peer.cp != -1

    def test_leave_transfers_load_to_neighbor(self):
        system = build_system(p_s=0.8, n_peers=30)
        peers = [p.address for p in system.alive_peers()]
        system.populate([(peers[i % len(peers)], f"k{i}", i) for i in range(90)])
        total = system.total_items()
        loaded = next(p for p in system.s_peers() if len(p.database) > 0)
        system.leave_peers([loaded.address])
        drain(system)
        assert system.total_items() == total  # nothing lost

    def test_server_counts_updated_on_leave(self):
        system = build_system(p_s=0.8, n_peers=30)
        before = system.server.s_count
        victim = system.s_peers()[0]
        system.leave_peers([victim.address])
        drain(system)
        assert system.server.s_count == before - 1

    def test_mass_leave_keeps_invariants(self):
        system = build_system(p_s=0.9, n_peers=40, delta=2, seed=2)
        victims = [p.address for p in system.s_peers()[::3]]
        for addr in victims:
            system.peers[addr].leave()
        drain(system)
        check_ring(system)
        check_trees(system)


class TestLookupAfterChurn:
    def test_lookups_survive_graceful_churn(self):
        system = build_system(p_s=0.8, n_peers=40, ttl=6)
        peers = [p.address for p in system.alive_peers()]
        system.populate([(peers[i % len(peers)], f"k{i}", i) for i in range(80)])
        victims = [p.address for p in system.s_peers()[:8]]
        for addr in victims:
            system.peers[addr].leave()
        drain(system)
        alive = [p.address for p in system.alive_peers()]
        system.run_lookups([(alive[(i * 7) % len(alive)], f"k{i}") for i in range(80)])
        assert system.query_stats().failure_ratio == 0.0
