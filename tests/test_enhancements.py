"""Section 5 enhancement tests: link heterogeneity (5.1), landmark
binning (5.2), interest-based s-networks (5.3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import HybridConfig, HybridSystem
from repro.enhance import assign_roles, choose_landmarks, coordinate_of, link_usage, prefix_similarity
from repro.net import Router, TransitStubConfig, generate_transit_stub
from repro.workloads import interest_sharing

from .conftest import build_system, check_trees


class TestRoleAssignment:
    def test_exact_split(self, rng):
        roles = assign_roles([1.0] * 100, 0.7, rng, heterogeneity_aware=False)
        assert roles.count("t") == 30
        assert roles.count("s") == 70

    def test_at_least_one_tpeer(self, rng):
        roles = assign_roles([1.0] * 10, 1.0, rng, heterogeneity_aware=False)
        assert roles.count("t") == 1

    def test_hetero_gives_t_to_fastest(self, rng):
        caps = [1.0] * 50 + [10.0] * 50
        roles = assign_roles(caps, 0.5, rng, heterogeneity_aware=True)
        fast_roles = roles[50:]
        assert fast_roles.count("t") == 50  # every fast peer is a t-peer

    def test_random_assignment_mixes(self, rng):
        caps = [1.0] * 50 + [10.0] * 50
        roles = assign_roles(caps, 0.5, rng, heterogeneity_aware=False)
        assert 0 < roles[50:].count("t") < 50

    def test_empty_population(self, rng):
        assert assign_roles([], 0.5, rng, True) == []

    def test_link_usage_metric(self):
        assert link_usage(4, 2.0) == 2.0
        with pytest.raises(ValueError):
            link_usage(1, 0.0)


class TestHeterogeneitySystem:
    def test_tpeers_are_fast_when_aware(self):
        system = build_system(p_s=0.7, n_peers=60, heterogeneity_aware=True)
        t_caps = [p.capacity for p in system.t_peers()]
        s_caps = [p.capacity for p in system.s_peers()]
        assert min(t_caps) >= max(
            c for c in s_caps if c <= min(t_caps)
        ) or np.mean(t_caps) > np.mean(s_caps)

    def test_awareness_lowers_latency(self):
        """Fig. 6a's claim at a small scale: heterogeneity-aware role
        assignment shortens mean lookup latency."""

        def latency(aware: bool) -> float:
            system = build_system(
                p_s=0.7, n_peers=60, seed=21,
                heterogeneity_aware=aware,
            )
            peers = [p.address for p in system.alive_peers()]
            system.populate(
                [(peers[i % len(peers)], f"k{i}", i) for i in range(150)]
            )
            alive = [p.address for p in system.alive_peers()]
            system.run_lookups(
                [(alive[(i * 7) % len(alive)], f"k{i}") for i in range(150)]
            )
            stats = system.query_stats()
            assert stats.failure_ratio == 0.0
            return stats.mean_latency

        assert latency(True) < latency(False)


class TestBinning:
    @pytest.fixture
    def router(self, rng):
        topo = generate_transit_stub(TransitStubConfig(), rng)
        return Router(topo)

    def test_landmarks_are_spread(self, router, rng):
        landmarks = choose_landmarks(router, 6, rng)
        assert len(set(landmarks)) == 6
        # No two landmarks should be near-coincident.
        for i, a in enumerate(landmarks):
            for b in landmarks[i + 1:]:
                assert router.latency(a, b) > 0

    def test_coordinate_is_permutation(self, router, rng):
        landmarks = choose_landmarks(router, 5, rng)
        coord = coordinate_of(router, 3, landmarks)
        assert sorted(coord) == list(range(5))

    def test_same_stub_domain_same_coordinate(self, router, rng):
        """Physically adjacent hosts should bin together -- the property
        the whole enhancement rests on."""
        topo = router.topology
        landmarks = choose_landmarks(router, 4, rng)
        by_domain = {}
        for node in topo.stub_nodes:
            by_domain.setdefault(topo.domain[node], []).append(node)
        domain_nodes = next(v for v in by_domain.values() if len(v) >= 3)
        coords = [coordinate_of(router, n, landmarks) for n in domain_nodes[:3]]
        sims = [
            prefix_similarity(coords[0], c) for c in coords[1:]
        ]
        assert all(s >= 1 for s in sims)

    def test_prefix_similarity(self):
        assert prefix_similarity((1, 2, 3), (1, 2, 4)) == 2
        assert prefix_similarity((0,), (1,)) == 0
        assert prefix_similarity((1, 2), (1, 2)) == 2

    def test_invalid_landmark_count(self, router, rng):
        with pytest.raises(ValueError):
            choose_landmarks(router, 0, rng)

    def test_binned_system_clusters_snetworks(self):
        """Under binned assignment, s-peers should be physically closer
        to their t-peer than under balanced assignment."""

        def mean_anchor_distance(n_landmarks: int) -> float:
            system = build_system(p_s=0.8, n_peers=60, seed=17, n_landmarks=n_landmarks)
            total, count = 0.0, 0
            peers = {p.address: p for p in system.alive_peers()}
            for p in system.s_peers():
                anchor = peers[p.t_peer]
                total += system.router.latency(p.host, anchor.host)
                count += 1
            return total / count

        binned = mean_anchor_distance(8)
        balanced = mean_anchor_distance(0)
        assert binned < balanced

    def test_landmarks_past_the_table_limit(self):
        """Landmarks are scored through ``latency``, which every router
        form has, not through a full latency matrix."""
        system = HybridSystem(HybridConfig(p_s=0.7, n_landmarks=8), n_peers=5000)
        assert system.router._table is None
        assert len(set(system.landmarks)) == 8


class TestInterest:
    def test_interest_scenario_keeps_lookups_local(self):
        from repro.core import HybridConfig

        system = interest_sharing(
            HybridConfig(p_s=0.8, ttl=8),
            n_peers=60,
            categories=["music", "video", "books"],
            keys_per_category=40,
            n_lookups=150,
            seed=19,
            locality=0.9,
        )
        stats = system.query_stats()
        assert stats.failure_ratio < 0.05
        # Most lookups should have been local to the origin's s-network.
        assert stats.local_fraction > 0.4

    def test_interest_data_lands_in_interest_network(self):
        system = interest_sharing(
            HybridConfig(p_s=0.8, ttl=8),
            n_peers=60,
            categories=["music", "video"],
            keys_per_category=30,
            n_lookups=30,
            seed=23,
            locality=1.0,
        )
        anchors = dict(system.server.interest_map)
        peers = {p.address: p for p in system.alive_peers()}
        misplaced = 0
        total = 0
        for p in system.alive_peers():
            for item in p.database:
                cat = item.key.partition(":")[0]
                if cat not in anchors:
                    continue
                total += 1
                anchor_addr = anchors[cat]
                holder_anchor = p.address if p.role == "t" else p.t_peer
                if holder_anchor != anchor_addr:
                    misplaced += 1
        assert total > 0
        # Category bands may straddle one segment boundary; the vast
        # majority must land in the category's own s-network.
        assert misplaced / total < 0.2
