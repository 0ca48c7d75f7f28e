"""t-network protocol tests: join/leave triangles, concurrency,
role handoff, load transfer (Sections 3.2.1, 3.3, Table 1)."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HybridConfig, HybridSystem
from repro.core.tnetwork import TNetworkMixin
from repro.overlay.idspace import IdSpace

from .conftest import build_system, check_ring, check_trees


def drain(system):
    system.engine.run()


class TestSequentialJoin:
    def test_two_peer_ring(self):
        system = build_system(p_s=0.0, n_peers=2)
        a, b = system.t_peers()
        assert a.successor == b.address and a.predecessor == b.address
        assert b.successor == a.address and b.predecessor == a.address

    def test_join_transfers_load(self):
        """A new t-peer must receive the items in its segment."""
        system = build_system(p_s=0.0, n_peers=10)
        peers = [p.address for p in system.alive_peers()]
        system.populate([(peers[i % 10], f"k{i}", i) for i in range(100)])
        # Every t-peer owns exactly the items whose d_id is in its segment.
        newcomer = system.add_peer()
        drain(system)
        check_ring(system)
        for p in system.t_peers():
            for item in p.database:
                assert p.owns(item.d_id), (
                    f"{p.address} holds {item.key} outside its segment"
                )
        assert system.total_items() == 100  # conservation

    def test_pid_conflict_resolved_by_midpoint(self):
        """Forcing every p_id to collide exercises Table 1's check()."""
        cfg = HybridConfig(p_s=0.0)
        system = HybridSystem(cfg, n_peers=5, seed=3)
        # Pin the server's generator so every new p_id collides.
        system.server.generate_pid = lambda address: 1000  # type: ignore[assignment]
        system.build()
        drain(system)
        pids = sorted(p.p_id for p in system.t_peers())
        assert len(set(pids)) == 5  # all conflicts re-assigned
        check_ring(system)


class TestConcurrentJoin:
    def test_simultaneous_joins_all_complete(self):
        """Fire many joins at once; the mutex queues must serialize them."""
        cfg = HybridConfig(p_s=0.0)
        system = HybridSystem(cfg, n_peers=1, seed=5)
        system.build()
        newcomers = [system.add_peer(wait=False) for _ in range(15)]
        drain(system)
        assert all(p.joined for p in newcomers)
        check_ring(system)
        assert len(system.ring_order()) == 16

    def test_concurrent_joins_many_entry_points(self):
        system = build_system(p_s=0.0, n_peers=10)
        newcomers = [system.add_peer(wait=False) for _ in range(10)]
        drain(system)
        assert all(p.joined for p in newcomers)
        check_ring(system)


class TestLeaveTriangle:
    def test_leave_without_snetwork_uses_triangle(self):
        system = build_system(p_s=0.0, n_peers=8)
        leaver = system.t_peers()[3]
        suc_addr = leaver.successor
        system.leave_peers([leaver.address])
        drain(system)
        assert not leaver.alive
        check_ring(system)
        assert len(system.ring_order()) == 7

    def test_leave_dumps_load_to_successor(self):
        system = build_system(p_s=0.0, n_peers=6)
        peers = [p.address for p in system.alive_peers()]
        system.populate([(peers[0], f"k{i}", i) for i in range(60)])
        leaver = system.t_peers()[2]
        n_held = len(leaver.database)
        suc = system.peers[leaver.successor]
        before = len(suc.database)
        system.leave_peers([leaver.address])
        drain(system)
        assert len(suc.database) == before + n_held
        assert system.total_items() == 60

    def test_simultaneous_leaves(self):
        system = build_system(p_s=0.0, n_peers=12)
        # Two non-adjacent t-peers leave at the same instant.
        order = system.ring_order()
        targets = [order[2], order[7]]
        for addr in targets:
            system.peers[addr].leave()
        drain(system)
        check_ring(system)
        assert len(system.ring_order()) == 10

    def test_last_peer_leaves(self):
        system = build_system(p_s=0.0, n_peers=1)
        only = system.t_peers()[0]
        only.leave()
        drain(system)
        assert not only.alive
        assert len(system.server.ring) == 0


class TestRoleHandoff:
    def test_handoff_promotes_child(self):
        """A leaving t-peer with an s-network hands its role to a child --
        the ring membership count must not change (the paper's headline
        maintenance saving)."""
        system = build_system(p_s=0.6, n_peers=20)
        t_before = len(system.t_peers())
        target = next(p for p in system.t_peers() if p.children)
        old_addr = target.address
        old_pid = target.p_id
        target.leave()
        drain(system)
        assert not target.alive
        assert len(system.t_peers()) == t_before  # substitution, not shrink
        check_ring(system)
        check_trees(system)
        promoted = next(p for p in system.t_peers() if p.p_id == old_pid)
        assert promoted.address != old_addr

    def test_handoff_moves_data(self):
        system = build_system(p_s=0.6, n_peers=20)
        peers = [p.address for p in system.alive_peers()]
        system.populate([(peers[i % len(peers)], f"k{i}", i) for i in range(80)])
        total = system.total_items()
        target = next(p for p in system.t_peers() if p.children)
        target.leave()
        drain(system)
        assert system.total_items() == total

    def test_handoff_updates_tpeer_pointers_in_tree(self):
        system = build_system(p_s=0.8, n_peers=25)
        target = max(system.t_peers(), key=lambda p: len(p.children))
        members = [p for p in system.s_peers() if p.t_peer == target.address]
        assert members
        old_pid = target.p_id
        target.leave()
        drain(system)
        promoted = next(p for p in system.t_peers() if p.p_id == old_pid)
        for m in members:
            if m.alive and m.address != promoted.address:
                assert m.t_peer == promoted.address
        check_trees(system)

    def test_repeated_handoffs_drain_snetwork(self):
        """Keep retiring the same ring slot until its s-network empties."""
        system = build_system(p_s=0.7, n_peers=15)
        pid = system.t_peers()[0].p_id
        for _ in range(10):
            holder = next(
                (p for p in system.t_peers() if p.p_id == pid), None
            )
            if holder is None:
                break
            holder.leave()
            drain(system)
            check_ring(system)
        # Either the slot finally dissolved (triangle leave) or the ring
        # is still consistent; both are valid ends.
        check_trees(system)


class TestFingerMaintenance:
    def test_finger_substitution_after_handoff(self):
        system = build_system(p_s=0.5, n_peers=20, ring_routing="finger")
        target = next(p for p in system.t_peers() if p.children)
        old_addr = target.address
        old_pid = target.p_id
        target.leave()
        drain(system)
        promoted = next(p for p in system.t_peers() if p.p_id == old_pid)
        for p in system.t_peers():
            finger_addrs = {a for _, a in p.fingers}
            assert old_addr not in finger_addrs, (
                f"{p.address} still points at departed {old_addr}"
            )

    def test_lookup_works_in_finger_mode_after_handoff(self):
        system = build_system(p_s=0.5, n_peers=20, ring_routing="finger")
        peers = [p.address for p in system.alive_peers()]
        system.populate([(peers[i % len(peers)], f"k{i}", i) for i in range(40)])
        target = next(p for p in system.t_peers() if p.children)
        target.leave()
        drain(system)
        alive = [p.address for p in system.alive_peers()]
        system.run_lookups([(alive[(i * 3) % len(alive)], f"k{i}") for i in range(40)])
        assert system.query_stats().failure_ratio == 0.0

    def test_triangle_leave_settles(self):
        """A t-peer with no s-network leaves by the triangle and sends a
        circulating FingerSubstitute; it must stop after one lap instead
        of circling a ring its origin (the leaver) is no longer on."""
        system = HybridSystem(HybridConfig(p_s=0.0, ring_routing="finger"), n_peers=20, seed=0)
        system.build()
        drain(system)
        leaver = system.t_peers()[3]
        system.leave_peers([leaver.address])
        assert system.engine.run(max_events=200_000) < 1_000
        assert not leaver.alive
        check_ring(system)
        for p in system.t_peers():
            assert leaver.address not in {a for _, a in p.fingers}
        alive = [p.address for p in system.alive_peers()]
        system.populate([(alive[i % len(alive)], f"k{i}", i) for i in range(40)])
        system.run_lookups([(alive[(i * 7) % len(alive)], f"k{i}") for i in range(40)])
        assert system.query_stats().failure_ratio == 0.0

    def test_leave_keeps_finger_pids_true(self):
        """A leave drops the fingers naming the leaver rather than
        pointing them at its successor under the leaver's p_id."""
        system = HybridSystem(HybridConfig(p_s=0.0, ring_routing="finger"), n_peers=120, seed=0)
        system.build()
        drain(system)
        rng = system.rngs.stream("churncheck")
        alive = [p.address for p in system.alive_peers()]
        system.leave_peers([int(alive[int(rng.integers(0, len(alive)))])])
        drain(system)
        assert_finger_pids_true(system)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_churn_settles(self, seed):
        """Alternating joins and leaves on a finger ring: a join whose
        p_id falls just past a departed peer must not cycle the fingers."""
        system = HybridSystem(HybridConfig(p_s=0.0, ring_routing="finger"), n_peers=120, seed=seed)
        system.build()
        drain(system)
        rng = system.rngs.stream("churncheck")
        for i in range(30):
            if i % 2 == 0:
                system.add_peer(wait=False)
            else:
                alive = [p.address for p in system.alive_peers()]
                system.leave_peers([int(alive[int(rng.integers(0, len(alive)))])], wait=False)
            assert system.engine.run(max_events=200_000) < 1_000
            assert_finger_pids_true(system)
        check_ring(system)


def assert_finger_pids_true(system):
    """Every live t-peer's (p_id, address) finger names that peer's p_id."""
    for p in system.t_peers():
        for pid, addr in p.fingers:
            assert system.peers[addr].p_id == pid, (p.address, pid, addr)


def scan_closest_preceding(peer, target: int) -> int:
    """The ``distance_cw`` scan ``closest_preceding`` replaced: kept as
    its oracle."""
    best_addr = peer.successor
    best_dist = peer.idspace.distance_cw(peer.p_id, peer.successor_pid)
    target_dist = peer.idspace.distance_cw(peer.p_id, target)
    for f_pid, f_addr in peer.fingers:
        d = peer.idspace.distance_cw(peer.p_id, f_pid)
        if 0 < d < target_dist and d > best_dist:
            best_dist = d
            best_addr = f_addr
    return best_addr


@st.composite
def finger_views(draw):
    """A t-peer's routing view: tiny id spaces make repeated pids,
    ``successor_pid == p_id`` and ``target == p_id`` common; the finger
    list is drawn unordered, as ``TPeerUpdate`` can leave it."""
    bits = draw(st.sampled_from([3, 5, 8, 32]))
    ids = st.integers(0, (1 << bits) - 1)
    p_id = draw(ids)
    fingers = draw(st.lists(st.tuples(ids, st.integers(0, 50)), max_size=12))
    peer = SimpleNamespace(
        idspace=IdSpace(bits), p_id=p_id, successor=draw(st.integers(0, 50)),
        successor_pid=draw(st.one_of(st.just(p_id), ids)), fingers=fingers,
    )
    return peer, draw(st.one_of(st.just(p_id), ids))


@settings(max_examples=400, deadline=None)
@given(finger_views())
def test_closest_preceding_matches_scan(view):
    peer, target = view
    assert TNetworkMixin.closest_preceding(peer, target) == scan_closest_preceding(peer, target)
