"""Concurrency-corner tests (Section 3.3 and the convergence machinery).

The paper devotes a whole section to concurrent joins/leaves; these
tests pin the exact interleavings the mutex triangles, deferred queues,
RingNotify assertions and retry timers exist for.
"""

from __future__ import annotations

from repro.core import HybridConfig, HybridSystem

from .conftest import build_system, check_ring, check_trees


def drain(system):
    system.engine.run()


class TestJoinLeaveInterleavings:
    def test_adjacent_leaves(self):
        """Two ring-adjacent t-peers leaving at once (triangle vs
        triangle: the deferred-leave queue must serialize them)."""
        system = build_system(p_s=0.0, n_peers=10, seed=6)
        order = system.ring_order()
        a, b = system.peers[order[3]], system.peers[order[4]]
        a.leave()
        b.leave()
        drain(system)
        assert not a.alive and not b.alive
        check_ring(system)
        assert len(system.ring_order()) == 8

    def test_three_adjacent_handoffs(self):
        """Three consecutive t-peers with s-networks hand off at once --
        the scenario that motivated RingNotify convergence."""
        system = build_system(p_s=0.6, n_peers=30, seed=8)
        order = system.ring_order()
        with_children = [a for a in order if system.peers[a].children]
        # Find three consecutive ring slots whose occupants have children.
        trio = None
        for i in range(len(order)):
            cand = [order[i], order[(i + 1) % len(order)], order[(i + 2) % len(order)]]
            if all(system.peers[a].children for a in cand):
                trio = cand
                break
        assert trio is not None, "no three adjacent anchored t-peers in this build"
        t_count = len(system.t_peers())
        for a in trio:
            system.peers[a].leave()
        drain(system)
        check_ring(system)
        check_trees(system)
        assert len(system.t_peers()) == t_count  # all substituted

    def test_leave_deferred_during_join(self):
        """A t-peer asked to leave while inserting a new peer must wait
        ("will not accept any leave requests including that from
        itself")."""
        system = build_system(p_s=0.0, n_peers=8, seed=3)
        pre = system.t_peers()[0]
        # Force the joining mutex and then request the leave.
        pre.joining = True
        pre.leave()
        assert pre.want_leave and pre.alive and not pre.leaving
        # Releasing the mutex (as the join ack would) lets the leave run.
        pre.joining = False
        pre._drain_control_queues()
        drain(system)
        assert not pre.alive
        check_ring(system)

    def test_join_queued_during_leave_lands_correctly(self):
        system = build_system(p_s=0.0, n_peers=8, seed=4)
        leaver = system.t_peers()[2]
        leaver.leave()
        newcomer = system.add_peer(wait=False)  # races the leave
        drain(system)
        assert newcomer.joined
        assert not leaver.alive
        check_ring(system)
        assert len(system.ring_order()) == 8  # -1 leaver +1 newcomer

    def test_concurrent_join_and_crash_storm(self):
        system = HybridSystem(
            HybridConfig(
                p_s=0.5, heartbeats_enabled=True, lookup_timeout=20_000.0
            ),
            n_peers=30,
            seed=9,
        )
        system.build()
        system.settle(2_000.0)
        newcomers = [system.add_peer(wait=False) for _ in range(5)]
        system.crash_random_fraction(0.1)
        system.settle(60_000.0)
        check_ring(system)
        check_trees(system)
        # Newcomers either joined or (rarely) are still retrying; none
        # may be wedged in a half-joined zombie state.
        for p in newcomers:
            if p.alive and p.joined and p.role == "s":
                assert p.cp != -1


class TestSegmentBookkeeping:
    def test_collectload_updates_member_segments(self):
        """A t-join must shrink the successor s-network's segment on
        every member (CollectLoad flood).  At 21 peers the server's
        role quota makes the newcomer a t-peer."""
        system = build_system(p_s=0.7, n_peers=21, seed=5)
        peers = [p.address for p in system.alive_peers()]
        system.populate([(peers[i % len(peers)], f"k{i}", i) for i in range(60)])
        newcomer = system.add_peer()
        drain(system)
        assert newcomer.role == "t"
        anchors = {p.address: p for p in system.t_peers()}
        for s in system.s_peers():
            anchor = anchors[s.t_peer]
            assert s.segment_lo == anchor.predecessor_pid or (
                # stale-narrow is allowed, stale-wide is not
                system.idspace.in_interval(
                    s.segment_lo, anchor.predecessor_pid, anchor.p_id,
                    closed_left=True,
                )
            )

    def test_leave_grows_successor_segment(self):
        """A triangle leave merges the segment into the successor, and
        SegmentGrow widens the members' ownership test."""
        system = build_system(p_s=0.3, n_peers=16, seed=12)
        leaver = next(p for p in system.t_peers() if not p.children)
        suc = system.peers[leaver.successor]
        old_lo = leaver.predecessor_pid
        leaver.leave()
        drain(system)
        assert suc.predecessor_pid == old_lo
        for s in system.s_peers():
            if s.t_peer == suc.address:
                assert s.segment_lo == old_lo


class TestRingNotify:
    def test_notify_accepts_substitution_at_same_pid(self):
        from repro.overlay.messages import RingNotify

        system = build_system(p_s=0.0, n_peers=6, seed=2)
        peer = system.t_peers()[0]
        msg = RingNotify(p_id=peer.predecessor_pid, claim="pred")
        msg.sender = 999
        peer.on_RingNotify(msg)
        assert peer.predecessor == 999  # address swap at identical pid

    def test_notify_accepts_closer_neighbor(self):
        from repro.overlay.messages import RingNotify

        system = build_system(p_s=0.0, n_peers=6, seed=2)
        peer = system.t_peers()[0]
        closer = system.idspace.midpoint_cw(peer.predecessor_pid, peer.p_id)
        assert closer not in (peer.predecessor_pid, peer.p_id), "arc too small"
        msg = RingNotify(p_id=closer, claim="pred")
        msg.sender = 999
        peer.on_RingNotify(msg)
        assert peer.predecessor == 999
        assert peer.segment_lo == closer

    def test_notify_rejects_farther_claimant(self):
        from repro.overlay.messages import RingNotify

        system = build_system(p_s=0.0, n_peers=6, seed=2)
        peer = system.t_peers()[0]
        # A pid on the far side of the ring is not a better predecessor.
        far = system.idspace.normalize(peer.p_id + 1)
        assert not system.idspace.in_interval(
            far, peer.predecessor_pid, peer.p_id
        ), "degenerate layout"
        before = peer.predecessor
        msg = RingNotify(p_id=far, claim="pred")
        msg.sender = 999
        peer.on_RingNotify(msg)
        assert peer.predecessor == before

    def test_notify_ignored_by_speers(self):
        from repro.overlay.messages import RingNotify

        system = build_system(p_s=0.8, n_peers=10, seed=2)
        s_peer = system.s_peers()[0]
        msg = RingNotify(p_id=1, claim="pred")
        msg.sender = 999
        s_peer.on_RingNotify(msg)  # must not raise or corrupt
        assert s_peer.role == "s"
