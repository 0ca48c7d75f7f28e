"""System construction invariants.

Every one of these runs the *real* join protocol through the event
engine; the assertions are the structural invariants of Section 3.1:
one consistent ring, degree-capped trees, exact role split, segment
bookkeeping.
"""

from __future__ import annotations

import pytest

from repro.core import HybridConfig, HybridSystem

from .conftest import build_bulk_system, build_system, check_ring, check_trees


class TestRoleSplit:
    @pytest.mark.parametrize("p_s", [0.0, 0.3, 0.5, 0.7, 0.9])
    def test_role_counts_match_ps(self, p_s):
        system = build_system(p_s=p_s, n_peers=40)
        expected_t = max(1, round((1.0 - p_s) * 40))
        assert len(system.t_peers()) == expected_t
        assert len(system.s_peers()) == 40 - expected_t

    def test_ps_one_keeps_single_anchor(self):
        # p_s = 1 degenerates to "pure Gnutella", but an s-network still
        # needs one anchor, so a single t-peer remains.
        system = build_system(p_s=1.0, n_peers=20)
        assert len(system.t_peers()) == 1
        assert len(system.s_peers()) == 19


class TestRingInvariants:
    @pytest.mark.parametrize("p_s", [0.0, 0.5, 0.9])
    def test_ring_consistent(self, p_s):
        system = build_system(p_s=p_s, n_peers=40)
        check_ring(system)

    def test_server_directory_matches_reality(self, small_system):
        actual = sorted((p.p_id, p.address) for p in small_system.t_peers())
        assert actual == sorted(small_system.server.ring.members())

    def test_pids_unique(self, small_system):
        pids = [p.p_id for p in small_system.t_peers()]
        assert len(pids) == len(set(pids))

    def test_segments_partition_id_space(self, small_system):
        """Every d_id must have exactly one owning t-peer."""
        idspace = small_system.idspace
        probes = [0, 1, 12345, idspace.size // 2, idspace.size - 1]
        probes += [p.p_id for p in small_system.t_peers()]
        for d in probes:
            owners = [p for p in small_system.t_peers() if p.owns(d)]
            assert len(owners) == 1, f"d_id {d} owned by {len(owners)} t-peers"

    def test_join_latencies_recorded(self, small_system):
        lat = small_system.join_latencies()
        assert len(lat["t"]) == len(small_system.t_peers())
        assert (lat["t"] > 0).all()
        assert (lat["s"] > 0).all()


class TestTreeInvariants:
    @pytest.mark.parametrize("delta", [1, 2, 3, 5])
    def test_degree_cap_respected(self, delta):
        system = build_system(p_s=0.8, n_peers=50, delta=delta)
        check_trees(system)
        for peer in system.s_peers():
            # cp consumes one slot of an s-peer's budget.
            assert len(peer.children) <= max(delta - 1, 1)
        for peer in system.t_peers():
            assert len(peer.children) <= max(
                delta, 1
            ) or system.config.p_s >= 1.0

    @pytest.mark.parametrize(
        "builder", [build_system, build_bulk_system], ids=["build", "build_bulk"]
    )
    def test_unbounded_delta_gives_depth_one(self, builder):
        # delta >= N: the t-peer takes everyone (the star topology).
        system = builder(p_s=0.8, n_peers=30, delta=30)
        check_trees(system)
        for peer in system.s_peers():
            assert peer.cp == peer.t_peer  # directly under the t-peer

    def test_balanced_assignment(self):
        system = build_system(p_s=0.75, n_peers=40)
        sizes = list(system.snetwork_sizes().values())
        assert max(sizes) - min(sizes) <= 1  # "s-network with a smaller size"

    def test_speers_share_anchor_pid(self, small_system):
        peers = {p.address: p for p in small_system.alive_peers()}
        for p in small_system.s_peers():
            assert p.p_id == peers[p.t_peer].p_id

    def test_segment_lo_matches_anchor(self, small_system):
        peers = {p.address: p for p in small_system.alive_peers()}
        for p in small_system.s_peers():
            anchor = peers[p.t_peer]
            # May be stale-narrow after ring growth, never stale-wide.
            assert small_system.idspace.in_interval(
                p.segment_lo, anchor.predecessor_pid, anchor.p_id,
                closed_left=True, closed_right=True,
            ) or p.segment_lo == anchor.predecessor_pid


class TestDeterminism:
    def test_same_seed_same_system(self):
        a = build_system(p_s=0.6, n_peers=30, seed=11)
        b = build_system(p_s=0.6, n_peers=30, seed=11)
        assert [(p.address, p.role, p.p_id) for p in a.peers.values()] == [
            (p.address, p.role, p.p_id) for p in b.peers.values()
        ]

    def test_different_seed_differs(self):
        a = build_system(p_s=0.6, n_peers=30, seed=11)
        b = build_system(p_s=0.6, n_peers=30, seed=12)
        assert [p.p_id for p in a.t_peers()] != [p.p_id for p in b.t_peers()]


class TestConstruction:
    def test_build_twice_rejected(self, small_system):
        with pytest.raises(RuntimeError):
            small_system.build()

    def test_topology_too_small_rejected(self):
        from repro.net import TransitStubConfig, generate_transit_stub
        import numpy as np

        tiny = generate_transit_stub(
            TransitStubConfig(
                transit_domains=1,
                transit_nodes_per_domain=2,
                stub_domains_per_transit_node=1,
                stub_nodes_per_domain=2,
            ),
            np.random.default_rng(0),
        )
        with pytest.raises(ValueError, match="hosts"):
            HybridSystem(HybridConfig(), n_peers=50, topology=tiny)

    def test_dynamic_add_peer(self, small_system):
        before = len(small_system.alive_peers())
        peer = small_system.add_peer()
        assert peer.joined
        assert len(small_system.alive_peers()) == before + 1
        check_ring(small_system)
        check_trees(small_system)

    def test_finger_mode_installs_fingers(self):
        system = build_system(p_s=0.3, n_peers=30, ring_routing="finger")
        for p in system.t_peers():
            assert p.fingers, "finger table empty"
            addrs = {a for _, a in p.fingers}
            assert p.address not in addrs
