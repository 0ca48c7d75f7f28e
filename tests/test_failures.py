"""Crash detection and recovery tests (Section 3.2.2).

Heartbeats, neighbor deadlines, subtree rejoin, t-peer replacement
elections at the server, ring repair, and the failure-ratio behaviour
of Fig. 5b.
"""

from __future__ import annotations

import pytest

from repro.core import HybridConfig, HybridSystem
from repro.metrics import MembershipLog
from repro.overlay.messages import Ack, Hello

from .conftest import build_system, check_ring, check_trees

HB = dict(heartbeats_enabled=True, lookup_timeout=20_000.0)


def settle(system, ms=30_000.0):
    system.engine.run_until(system.engine.now + ms)


class TestDetection:
    def test_crashed_speer_removed_from_parent(self):
        system = build_system(p_s=0.8, n_peers=30, **HB)
        leaf = next(p for p in system.s_peers() if not p.children)
        cp = system.peers[leaf.cp]
        leaf.crash()
        settle(system, 10_000)
        assert leaf.address not in cp.children

    def test_orphan_rejoins_after_cp_crash(self):
        system = build_system(p_s=0.9, n_peers=40, delta=2, seed=6, **HB)
        interior = next(
            p for p in system.s_peers() if p.children and p.cp != p.t_peer
        )
        log = MembershipLog(system.trace)
        interior.crash()
        settle(system, 20_000)
        check_trees(system)
        assert log.count("crash.detected") >= 1

    def test_detection_latency_bounded_by_timeout(self):
        system = build_system(p_s=0.8, n_peers=20, **HB)
        log = MembershipLog(system.trace)
        victim = system.s_peers()[0]
        t0 = system.engine.now
        victim.crash()
        settle(system, 10_000)
        detections = [r for r in log.of("crash.detected")
                      if r.payload["suspect"] == victim.address]
        assert detections
        # Timeout 3.5s plus one hello period of slack.
        assert all(r.time - t0 < 6_000.0 for r in detections)

    def test_no_false_positives_without_crashes(self):
        system = build_system(p_s=0.7, n_peers=30, **HB)
        log = MembershipLog(system.trace)
        settle(system, 20_000)
        assert log.count("crash.detected") == 0


class TestTPeerReplacement:
    def test_election_promotes_s_child(self):
        system = build_system(p_s=0.7, n_peers=30, seed=9, **HB)
        victim = next(p for p in system.t_peers() if p.children)
        pid = victim.p_id
        t_before = len(system.t_peers())
        log = MembershipLog(system.trace)
        victim.crash()
        settle(system, 30_000)
        assert log.count("t.promotion") == 1
        assert len(system.t_peers()) == t_before  # substitution
        promoted = next(p for p in system.t_peers() if p.p_id == pid)
        assert promoted.address != victim.address
        check_ring(system)
        check_trees(system)

    def test_ring_excised_when_no_replacement_exists(self):
        system = build_system(p_s=0.0, n_peers=10, **HB)
        victim = system.t_peers()[4]
        log = MembershipLog(system.trace)
        victim.crash()
        settle(system, 30_000)
        assert log.count("server.excise") == 1
        check_ring(system)
        assert len(system.ring_order()) == 9

    def test_crashed_tpeer_data_is_lost(self):
        system = build_system(p_s=0.7, n_peers=30, seed=9, **HB)
        peers = [p.address for p in system.alive_peers()]
        system.populate([(peers[i % len(peers)], f"k{i}", i) for i in range(90)])
        victim = max(system.t_peers(), key=lambda p: len(p.database))
        lost = len(victim.database)
        total = system.total_items()
        victim.crash()
        settle(system, 30_000)
        assert system.total_items() == total - lost

    def test_multiple_simultaneous_tpeer_crashes(self):
        system = build_system(p_s=0.6, n_peers=40, seed=10, **HB)
        victims = [p for p in system.t_peers() if p.children][:3]
        for v in victims:
            v.crash()
        settle(system, 60_000)
        check_ring(system)
        check_trees(system)

    def test_mixed_crash_storm(self):
        """Crash a fifth of everything at once; system must re-stabilize."""
        system = build_system(p_s=0.7, n_peers=50, seed=11, **HB)
        system.crash_random_fraction(0.2)
        settle(system, 60_000)
        check_ring(system)
        check_trees(system)


class TestFailureRatioUnderCrash:
    def test_failure_tracks_data_loss(self):
        """Fig. 5b: failure ratio ~ fraction of items lost, not more."""
        system = build_system(p_s=0.6, n_peers=60, ttl=6, seed=12, **HB)
        peers = [p.address for p in system.alive_peers()]
        n = 180
        system.populate([(peers[i % len(peers)], f"k{i}", i) for i in range(n)])
        system.crash_random_fraction(0.15)
        settle(system, 40_000)
        surviving = set()
        for p in system.alive_peers():
            surviving.update(i.key for i in p.database)
        lost_fraction = 1 - len(surviving) / n
        alive = [p.address for p in system.alive_peers()]
        system.run_lookups([(alive[(i * 7) % len(alive)], f"k{i}") for i in range(n)])
        stats = system.query_stats()
        assert stats.failure_ratio == pytest.approx(lost_fraction, abs=0.05)

    def test_zero_crash_zero_failures(self):
        system = build_system(p_s=0.6, n_peers=40, ttl=6, **HB)
        peers = [p.address for p in system.alive_peers()]
        system.populate([(peers[i % len(peers)], f"k{i}", i) for i in range(80)])
        settle(system, 20_000)
        alive = [p.address for p in system.alive_peers()]
        system.run_lookups([(alive[(i * 3) % len(alive)], f"k{i}") for i in range(80)])
        assert system.query_stats().failure_ratio == 0.0


class TestHeartbeatEconomy:
    def test_acks_suppress_hellos(self):
        """Query acknowledgments should replace scheduled HELLOs
        (Section 3.2.2's bandwidth optimisation)."""
        system = build_system(p_s=0.8, n_peers=20, **HB)
        peers = [p.address for p in system.alive_peers()]
        system.populate([(peers[i % len(peers)], f"k{i}", i) for i in range(40)])

        hellos = {"n": 0}
        acks = {"n": 0}

        def count(record):
            if record.payload.get("kind") == "Hello":
                hellos["n"] += 1
            elif record.payload.get("kind") == "Ack":
                acks["n"] += 1

        system.trace.subscribe("transport.send", count)
        alive = [p.address for p in system.alive_peers()]
        # A heavy continuous query load.
        system.run_lookups(
            [(alive[(i * 3) % len(alive)], f"k{i % 40}") for i in range(200)],
            wave_size=20,
        )
        assert acks["n"] > 0

    def test_heartbeats_disabled_means_no_hello_traffic(self):
        system = build_system(p_s=0.8, n_peers=20)  # heartbeats off
        seen = {"hello": 0}
        system.trace.subscribe(
            "transport.send",
            lambda r: seen.__setitem__(
                "hello", seen["hello"] + (r.payload.get("kind") == "Hello")
            ),
        )
        settle(system, 10_000)
        assert seen["hello"] == 0


class TestAckSuppressBoundary:
    """The suppress timer at its *exact* expiry instant.

    ``note_query_activity`` compares ``engine.now >= ack_suppress_until``
    -- the boundary is inclusive, so a query landing at precisely the
    expiry tick must behave like an unsuppressed one: acknowledgment
    sent, neighbor deadline pushed back, and the next scheduled HELLO to
    that neighbor deferred.  ``ack_suppress`` is half the 1 s HELLO
    period: 500 ms.
    """

    def test_query_at_exact_expiry_acks_resets_and_defers(self):
        system = build_system(p_s=0.0, n_peers=8, **HB)
        a = system.t_peers()[0]
        b = a.successor
        sent = {"acks": 0}
        system.trace.subscribe(
            "transport.send",
            lambda r: sent.__setitem__(
                "acks", sent["acks"] + (r.payload.get("kind") == "Ack")
            ),
        )

        # First query opens the suppress window.
        a.note_query_activity(b, query_id=1)
        assert sent["acks"] == 1
        opened_until = a.ack_suppress_until
        assert opened_until == system.engine.now + 500.0

        # Strictly inside the window: suppressed.
        a.note_query_activity(b, query_id=2)
        assert sent["acks"] == 1

        # Land the clock at exactly the expiry instant.
        system.engine.run_until(opened_until)
        assert system.engine.now == opened_until
        assert b in a.neighbor_deadlines
        acks_before = sent["acks"]

        a.note_query_activity(b, query_id=3)

        # Boundary is inclusive: the acknowledgment goes out ...
        assert sent["acks"] == acks_before + 1
        # ... a fresh window opens from the expiry instant ...
        assert a.ack_suppress_until == opened_until + 500.0
        # ... the neighbor's deadline restarts its full countdown from now ...
        assert a.neighbor_deadlines[b] == system.engine.now + a.config.neighbor_timeout
        # ... and the ack stands in for b's next scheduled HELLO.
        assert a._last_liveness_sent[b] == system.engine.now
        targets = []
        original = a.send_many
        a.send_many = lambda addrs, msg: (targets.extend(addrs), original(addrs, msg))
        try:
            a._send_hellos()
        finally:
            a.send_many = original
        assert b not in targets

    def test_query_one_tick_before_expiry_stays_suppressed(self):
        system = build_system(p_s=0.0, n_peers=8, **HB)
        a = system.t_peers()[0]
        b = a.successor
        sent = {"acks": 0}
        system.trace.subscribe(
            "transport.send",
            lambda r: sent.__setitem__(
                "acks", sent["acks"] + (r.payload.get("kind") == "Ack")
            ),
        )
        a.note_query_activity(b, query_id=1)
        assert sent["acks"] == 1
        until = a.ack_suppress_until
        system.engine.run_until(until - 1e-6)
        a.note_query_activity(b, query_id=2)
        assert sent["acks"] == 1  # still inside the window
        assert a.ack_suppress_until == until  # window not re-opened


def sent_by(msg, sender):
    """``msg`` as if the transport had delivered it from ``sender``."""
    msg.sender = sender
    return msg


class TestDeadlineTable:
    """Detection instants of the per-peer deadline table and its watchdog.

    Each test crashes some of one t-peer's ring neighbors and then feeds
    that peer late evidence from them by hand, so every deadline is
    known exactly.
    """

    @staticmethod
    def detections_by(log, peer):
        return [
            (r.time, r.payload["suspect"]) for r in log.of("crash.detected")
            if r.payload["peer"] == peer.address
        ]

    def test_last_hello_ack_or_query_plus_timeout_is_the_crash_instant(self):
        system = build_system(p_s=0.0, n_peers=8, **HB)
        engine, a = system.engine, system.t_peers()[0]
        b = a.successor
        timeout = a.config.neighbor_timeout
        log = MembershipLog(system.trace)
        system.peers[b].crash()
        # A Hello, an Ack and a query still in flight from b each push
        # its deadline back to a full timeout from their arrival.
        for evidence in (
            lambda: a.on_Hello(sent_by(Hello(), b)),
            lambda: a.on_Ack(sent_by(Ack(query_id=1), b)),
            lambda: a.note_query_activity(b, query_id=2),
        ):
            engine.run_until(engine.now + 2_000.0)
            evidence()
            assert a.neighbor_deadlines[b] == engine.now + timeout
            last = engine.now
        assert self.detections_by(log, a) == []
        settle(system, 10_000)
        assert self.detections_by(log, a) == [(last + timeout, b)]
        assert b not in a.neighbor_deadlines

    def test_deadlines_that_tie_expire_in_last_set_order(self):
        system = build_system(p_s=0.0, n_peers=8, **HB)
        engine, a = system.engine, system.t_peers()[0]
        log = MembershipLog(system.trace)
        first, second = list(a.neighbor_deadlines)
        for addr in (first, second):
            system.peers[addr].crash()
        engine.run_until(engine.now + 500.0)
        # Same instant, reverse of the table's order: second now expires first.
        a.on_Hello(sent_by(Hello(), second))
        a.on_Hello(sent_by(Hello(), first))
        due = engine.now + a.config.neighbor_timeout
        settle(system, 10_000)
        assert self.detections_by(log, a)[:2] == [(due, second), (due, first)]

    def test_neighbor_watched_by_a_crash_handler_delays_no_earlier_deadline(self):
        system = build_system(p_s=0.0, n_peers=8, **HB)
        engine, a = system.engine, system.t_peers()[0]
        timeout = a.config.neighbor_timeout
        log = MembershipLog(system.trace)
        early, late = a.predecessor, a.successor
        for addr in (early, late):
            system.peers[addr].crash()
        engine.run_until(engine.now + 500.0)
        a.on_Hello(sent_by(Hello(), late))
        late_due = engine.now + timeout
        early_due = a.neighbor_deadlines[early]
        assert early_due < late_due
        stranger = next(
            p.address for p in system.alive_peers()
            if p.address not in (a.address, early, late)
        )
        handled = []
        real = a._handle_neighbor_crash

        def handle(addr):
            handled.append(addr)
            if addr == early:
                a.watch_neighbor(stranger)  # due a full timeout from now
            real(addr)

        a._handle_neighbor_crash = handle
        engine.run_until(early_due)
        assert handled == [early]
        assert a.neighbor_deadlines[stranger] == early_due + timeout > late_due
        assert a._watchdog.time == late_due
        engine.run_until(late_due)
        assert self.detections_by(log, a) == [(early_due, early), (late_due, late)]

    def test_stop_liveness_leaves_no_watchdog_pending(self):
        system = build_system(p_s=0.0, n_peers=8, **HB)
        a = system.t_peers()[0]
        watchdog = a._watchdog
        assert watchdog is not None and watchdog.pending
        a.stop_liveness()
        assert not watchdog.pending and a._watchdog is None
        assert not a.neighbor_deadlines
