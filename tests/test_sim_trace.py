"""Unit tests for the trace bus."""

from __future__ import annotations

import pytest

from repro.sim import TraceBus, TraceRecord


def test_inactive_bus_drops_records():
    bus = TraceBus()
    bus.publish(1.0, "x", a=1)
    assert bus.emitted == 0  # publish short-circuits with no listeners


def test_category_subscription():
    bus = TraceBus()
    got = []
    bus.subscribe("join", got.append)
    bus.publish(1.0, "join", peer=3)
    bus.publish(2.0, "leave", peer=4)
    assert len(got) == 1
    assert got[0] == TraceRecord(1.0, "join", {"peer": 3})


def test_wildcard_subscription():
    bus = TraceBus()
    got = []
    bus.subscribe("*", got.append)
    bus.publish(1.0, "a")
    bus.publish(2.0, "b")
    assert [r.category for r in got] == ["a", "b"]


def test_unsubscribe():
    bus = TraceBus()
    got = []
    bus.subscribe("a", got.append)
    bus.unsubscribe("a", got.append)
    bus.publish(1.0, "a")
    assert got == []
    with pytest.raises(ValueError):
        bus.unsubscribe("a", got.append)


def test_multiple_subscribers_same_category():
    bus = TraceBus()
    a, b = [], []
    bus.subscribe("x", a.append)
    bus.subscribe("x", b.append)
    bus.publish(1.0, "x")
    assert len(a) == len(b) == 1


# ----------------------------------------------------------------------
# Edge paths: listener churn during publish, wants() caching
# ----------------------------------------------------------------------
def test_subscriber_can_unsubscribe_itself_during_publish():
    bus = TraceBus()
    got = []

    def once(rec):
        got.append(rec)
        bus.unsubscribe("x", once)

    bus.subscribe("x", once)
    bus.publish(1.0, "x")
    bus.publish(2.0, "x")
    assert len(got) == 1


def test_unsubscribe_during_publish_does_not_skip_later_subscribers():
    bus = TraceBus()
    got_a, got_b = [], []

    def a(rec):
        got_a.append(rec)
        bus.unsubscribe("x", a)

    bus.subscribe("x", a)
    bus.subscribe("x", got_b.append)
    # ``a`` removes itself mid-publish; with naive list iteration the
    # removal would shift ``b`` into the consumed slot and drop it.
    bus.publish(1.0, "x")
    assert len(got_a) == 1
    assert len(got_b) == 1


def test_wildcard_unsubscribe_during_publish_is_safe():
    bus = TraceBus()
    got = []

    def once(rec):
        got.append(rec)
        bus.unsubscribe("*", once)

    bus.subscribe("*", once)
    bus.subscribe("*", got.append)
    bus.publish(1.0, "anything")
    assert len(got) == 2  # both saw the record that triggered removal


def test_active_false_after_last_subscriber_leaves():
    bus = TraceBus()
    fn = lambda rec: None
    bus.subscribe("x", fn)
    assert bus.active and bus.wants("x")
    bus.unsubscribe("x", fn)
    assert not bus.active
    assert not bus.wants("x")
    bus.publish(1.0, "x")
    assert bus.emitted == 0  # back on the no-listener fast path


def test_wants_is_per_category_but_recording_is_conservative():
    bus = TraceBus()
    bus.subscribe("a", lambda rec: None)
    assert bus.wants("a")
    assert not bus.wants("b")


def test_unsubscribe_of_unknown_category_raises_without_mutating():
    bus = TraceBus()
    fn = lambda rec: None
    with pytest.raises(ValueError):
        bus.unsubscribe("lookup.hop", fn)
    # The failed call must not leave an empty listener list behind: that
    # made ``active`` True forever and every publish build a record.
    assert not bus.active and not bus.wants("lookup.hop")
    assert "lookup.hop" not in bus.wanted
    bus.publish(1.0, "lookup.hop")
    assert bus.emitted == 0
    bus.subscribe("other", fn)
    with pytest.raises(ValueError):
        bus.unsubscribe("other", lambda rec: None)  # known category, unknown fn
    assert bus.wants("other")


def protocol_categories() -> set:
    """Every category a small protocol-driven run publishes."""
    from repro.core import HybridConfig, HybridSystem

    seen = set()
    system = HybridSystem(HybridConfig(p_s=0.5), n_peers=30, seed=5)
    system.trace.subscribe("*", lambda rec: seen.add(rec.category))
    system.build()
    origins = sorted(system.peers)
    system.populate((origins[i % len(origins)], f"k{i}", i) for i in range(20))
    system.run_lookups([(origins[-1 - i], f"k{i}") for i in range(20)])
    assert {"transport.send", "lookup.hop", "flood.fanout", "lookup.done"} <= seen
    return seen


def test_wanted_tracks_every_listener_change():
    categories = protocol_categories() | {"never.published"}
    bus = TraceBus()
    reached = []

    def check(expected):
        """``wanted`` holds exactly ``expected`` (None: every category),
        ``wants``/``active`` agree, and no unwanted publish reaches anyone."""
        for category in categories:
            want = expected is None or category in expected
            assert (category in bus.wanted) is want, category
            assert bus.wants(category) is want, category
            before, emitted = len(reached), bus.emitted
            bus.publish(0.0, category)
            if not want:
                assert len(reached) == before and bus.emitted == emitted
        assert bus.active is (expected is None or bool(expected))

    hop = lambda rec: reached.append(rec)
    done = lambda rec: reached.append(rec)
    check(set())
    bus.subscribe("lookup.hop", hop)
    check({"lookup.hop"})
    bus.subscribe("lookup.hop", done)
    bus.subscribe("lookup.done", done)
    check({"lookup.hop", "lookup.done"})
    bus.unsubscribe("lookup.hop", hop)
    check({"lookup.hop", "lookup.done"})  # one lookup.hop listener left
    bus.unsubscribe("lookup.hop", done)
    check({"lookup.done"})
    bus.subscribe("*", hop)
    check(None)
    bus.unsubscribe("*", hop)
    check({"lookup.done"})
    bus.subscribe("*", hop)
    bus.clear()
    check(set())
