"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine, SimulationError
from repro.sim.timers import PeriodicTimer, Timer


class TestScheduling:
    def test_events_run_in_time_order(self, engine):
        hits = []
        engine.call_at(5.0, hits.append, "late")
        engine.call_at(1.0, hits.append, "early")
        engine.call_at(3.0, hits.append, "mid")
        engine.run()
        assert hits == ["early", "mid", "late"]

    def test_ties_break_by_insertion_order(self, engine):
        hits = []
        for i in range(10):
            engine.call_at(2.0, hits.append, i)
        engine.run()
        assert hits == list(range(10))

    def test_clock_advances_to_event_time(self, engine):
        times = []
        engine.call_at(4.5, lambda: times.append(engine.now))
        engine.run()
        assert times == [4.5]
        assert engine.now == 4.5

    def test_call_later_is_relative(self, engine):
        engine.call_at(10.0, lambda: engine.call_later(2.5, lambda: None))
        engine.run()
        assert engine.now == 12.5

    def test_past_scheduling_rejected(self, engine):
        engine.call_at(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.call_at(1.0, lambda: None)

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.call_later(-1.0, lambda: None)

    def test_zero_delay_runs_after_current_instant_events(self, engine):
        hits = []
        engine.call_at(1.0, hits.append, "a")
        engine.call_at(1.0, lambda: engine.call_later(0.0, hits.append, "c"))
        engine.call_at(1.0, hits.append, "b")
        engine.run()
        assert hits == ["a", "b", "c"]

    def test_kwargs_passed(self, engine):
        out = {}
        engine.call_later(1.0, out.update, x=1)
        engine.run()
        assert out == {"x": 1}


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, engine):
        hits = []
        ev = engine.call_at(1.0, hits.append, "x")
        ev.cancel()
        engine.run()
        assert hits == []

    def test_cancel_is_idempotent(self, engine):
        ev = engine.call_at(1.0, lambda: None)
        ev.cancel()
        ev.cancel()
        assert not ev.pending

    def test_cancel_after_fire_is_noop(self, engine):
        ev = engine.call_at(1.0, lambda: None)
        engine.run()
        ev.cancel()  # must not raise

    def test_pending_count_skips_cancelled(self, engine):
        evs = [engine.call_at(float(i + 1), lambda: None) for i in range(5)]
        evs[0].cancel()
        evs[3].cancel()
        assert engine.pending_count == 3
        assert len(engine) == 3

    @pytest.mark.parametrize(
        "drive",
        [
            lambda eng: eng.run(),
            lambda eng: eng.run_while(lambda: True),
            lambda eng: eng.run_before(100.0),
            lambda eng: eng.run_until(100.0),
            lambda eng: [eng.step() for _ in range(3)],
        ],
        ids=["run", "run_while", "run_before", "run_until", "step"],
    )
    def test_pending_count_is_exact_inside_callbacks(self, engine, drive):
        seen = []
        engine.call_at(1.0, lambda: None).cancel()  # discarded lazily, first
        engine.schedule_at(2.0, lambda: seen.append(engine.pending_count))
        engine.call_at(3.0, lambda: seen.append(engine.pending_count))
        dead = engine.call_at(4.0, lambda: None)
        engine.schedule_at(5.0, lambda: seen.append(len(engine)))
        dead.cancel()  # still on the heap while the first two callbacks run
        assert engine.pending_count == 3
        drive(engine)
        assert seen == [2, 1, 0]
        assert engine.pending_count == 0


class TestRunVariants:
    def test_run_returns_executed_count(self, engine):
        for i in range(7):
            engine.call_at(float(i), lambda: None)
        assert engine.run() == 7
        assert engine.events_executed == 7

    def test_step_returns_false_when_empty(self, engine):
        assert engine.step() is False

    def test_run_until_stops_at_deadline(self, engine):
        hits = []
        for t in (1.0, 2.0, 3.0, 4.0):
            engine.call_at(t, hits.append, t)
        engine.run_until(2.5)
        assert hits == [1.0, 2.0]
        assert engine.now == 2.5  # clock lands exactly on the deadline

    def test_run_until_includes_boundary(self, engine):
        hits = []
        engine.call_at(2.0, hits.append, "on-boundary")
        engine.run_until(2.0)
        assert hits == ["on-boundary"]

    def test_run_until_past_deadline_rejected(self, engine):
        engine.run_until(5.0)
        with pytest.raises(SimulationError):
            engine.run_until(1.0)

    def test_run_while_predicate(self, engine):
        hits = []
        for i in range(10):
            engine.call_at(float(i), hits.append, i)
        engine.run_while(lambda: len(hits) < 4)
        assert hits == [0, 1, 2, 3]

    def test_livelock_guard(self, engine):
        def reschedule():
            engine.call_later(0.0, reschedule)

        engine.call_later(0.0, reschedule)
        with pytest.raises(SimulationError):
            engine.run(max_events=1000)

    def test_cascading_events(self, engine):
        hits = []

        def chain(n):
            hits.append(n)
            if n > 0:
                engine.call_later(1.0, chain, n - 1)

        engine.call_later(0.0, chain, 5)
        engine.run()
        assert hits == [5, 4, 3, 2, 1, 0]
        assert engine.now == 5.0


class TestFastTier:
    """The no-handle scheduling tier (schedule_at) shares one clock, one
    sequence counter and one heap with the handle tier, so events from both interleave exactly by
    (time, insertion order)."""

    def test_schedule_at_orders_with_handles(self, engine):
        hits = []
        engine.call_at(2.0, hits.append, "handle@2")
        engine.schedule_at(1.0, hits.append, ("fast@1",))
        engine.schedule_at(2.0, hits.append, ("fast@2",))
        engine.run()
        assert hits == ["fast@1", "handle@2", "fast@2"]

    def test_schedule_after_is_relative(self, engine):
        engine.schedule_at(
            10.0, lambda: engine.schedule_at(engine.now + 2.5, lambda: None)
        )
        engine.run()
        assert engine.now == 12.5

    def test_fast_tier_rejects_past_and_negative(self, engine):
        engine.call_at(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(1.0, lambda: None)
        with pytest.raises(SimulationError):
            engine.call_later(-0.5, lambda: None)

    def test_live_count_tracks_both_tiers(self, engine):
        ev = engine.call_at(3.0, lambda: None)
        engine.schedule_at(1.0, lambda: None)
        assert engine.pending_count == 2
        assert len(engine) == 2
        ev.cancel()
        assert engine.pending_count == 1
        assert engine.run() == 1

    def test_run_until_pops_each_live_event_once(self, engine):
        # Regression: the old implementation peeked and re-popped, so a
        # cancellation storm could double-count; each live event must
        # dispatch exactly once and cancelled handles must not dispatch.
        hits = []
        keep = [engine.call_at(float(t), hits.append, t) for t in (1.0, 2.0, 3.0)]
        keep[1].cancel()
        engine.schedule_at(2.5, hits.append, (2.5,))
        engine.run_until(2.75)
        assert hits == [1.0, 2.5]
        assert engine.events_executed == 2
        assert engine.pending_count == 1
        engine.run_until(3.5)
        assert hits == [1.0, 2.5, 3.0]


class TestPoppedHandleEdges:
    """Cancelling an already-popped (fired) handle and scheduling at
    exactly the current timestamp -- the edges the sharded executor
    leans on -- must be well-defined."""

    def test_cancel_after_fire_keeps_fired_state(self, engine):
        hits = []
        ev = engine.call_at(1.0, hits.append, "x")
        engine.run()
        ev.cancel()
        # The callback ran; the handle must not pretend otherwise.
        assert hits == ["x"]
        assert ev.cancelled is False
        assert not ev.pending
        assert engine.pending_count == 0

    def test_cancel_own_handle_inside_callback(self, engine):
        handles = {}

        def fire_and_cancel():
            handles["ev"].cancel()  # already popped: must be a no-op

        handles["ev"] = engine.call_at(1.0, fire_and_cancel)
        engine.call_at(2.0, lambda: None)
        assert engine.run() == 2
        assert handles["ev"].cancelled is False
        assert engine.pending_count == 0

    def test_double_cancel_counts_live_once(self, engine):
        ev = engine.call_at(1.0, lambda: None)
        engine.call_at(2.0, lambda: None)
        ev.cancel()
        ev.cancel()
        assert engine.pending_count == 1
        assert engine.run() == 1
        assert engine.pending_count == 0

    def test_schedule_at_exactly_now_runs_this_instant(self, engine):
        hits = []
        engine.call_at(3.0, lambda: engine.schedule_at(3.0, hits.append, ("same-t",)))
        engine.run()
        assert hits == ["same-t"]
        assert engine.now == 3.0

    def test_call_at_exactly_now_runs_after_current_events(self, engine):
        hits = []
        engine.call_at(3.0, lambda: engine.call_at(3.0, hits.append, "child"))
        engine.call_at(3.0, hits.append, "sibling")
        engine.run()
        assert hits == ["sibling", "child"]

    def test_timer_restart_from_own_expiry(self, engine):
        ticks = []
        box = {}

        def expire_and_restart():
            ticks.append(engine.now)
            if len(ticks) < 3:
                box["t"].start()  # re-arm from inside the expiry callback

        box["t"] = Timer(engine, 1.0, expire_and_restart)
        box["t"].start()
        engine.run()
        assert ticks == [1.0, 2.0, 3.0]
        # The timer is spent; cancel after the fact stays a no-op.
        box["t"].cancel()
        assert engine.pending_count == 0

    def test_periodic_timer_stop_inside_tick(self, engine):
        timer_box = {}
        ticks = []

        def tick():
            ticks.append(engine.now)
            if len(ticks) == 2:
                timer_box["t"].stop()

        timer_box["t"] = PeriodicTimer(engine, 1.0, tick)
        timer_box["t"].start()
        engine.run()
        assert ticks == [1.0, 2.0]
        assert engine.pending_count == 0


class TestShardPrimitives:
    """run_before / next_event_time / pin_clock -- the conservative-sync
    primitives of repro.shard."""

    def test_run_before_is_strict(self, engine):
        hits = []
        for t in (1.0, 2.0, 3.0):
            engine.call_at(t, hits.append, t)
        engine.run_before(2.0)
        assert hits == [1.0]
        # Clock stays at the last executed event, not the deadline.
        assert engine.now == 1.0
        engine.run_before(3.5)
        assert hits == [1.0, 2.0, 3.0]

    def test_run_before_skips_cancelled_heads(self, engine):
        hits = []
        evs = [engine.call_at(float(t), hits.append, t) for t in (1.0, 2.0)]
        evs[0].cancel()
        assert engine.run_before(5.0) == 1
        assert hits == [2.0]
        assert engine.pending_count == 0

    def test_next_event_time(self, engine):
        assert engine.next_event_time() is None
        ev = engine.call_at(4.0, lambda: None)
        engine.schedule_at(7.0, lambda: None)
        assert engine.next_event_time() == 4.0
        ev.cancel()
        assert engine.next_event_time() == 7.0

    def test_pin_clock_moves_both_ways(self, engine):
        engine.call_at(10.0, lambda: None)
        engine.run()
        engine.pin_clock(4.0)  # rewind: heap is empty
        assert engine.now == 4.0
        engine.schedule_at(8.0, lambda: None)
        engine.pin_clock(6.0)  # forward, still before the pending event
        assert engine.now == 6.0
        with pytest.raises(SimulationError):
            engine.pin_clock(9.0)  # would put the pending event in the past

    def test_pin_clock_ignores_cancelled_events(self, engine):
        ev = engine.call_at(5.0, lambda: None)
        ev.cancel()
        engine.pin_clock(20.0)
        assert engine.now == 20.0
        assert engine.next_event_time() is None

    def test_schedule_after_pin_rewind(self, engine):
        hits = []
        engine.call_at(10.0, lambda: None)
        engine.run()
        engine.pin_clock(2.0)
        engine.schedule_at(engine.now + 1.0, hits.append, ("post-pin",))
        engine.run()
        assert hits == ["post-pin"]
        assert engine.now == 3.0


# One scheduled event: (time, handle tier?, handle to cancel when it
# fires, delay of a fast-tier child it schedules).  Few distinct times,
# so same-time ties are common.
EVENTS = st.lists(
    st.tuples(
        st.integers(0, 6),
        st.booleans(),
        st.none() | st.integers(0, 40),
        st.none() | st.integers(0, 3),
    ),
    min_size=1,
    max_size=30,
)


def load(engine, events, precancel):
    """Schedule ``events``; returns the log each callback appends
    ``(label, clock)`` to."""
    log, handles = [], []

    def fire(i, cancel, child):
        log.append((i, engine.now))
        if cancel is not None and handles:
            handles[cancel % len(handles)].cancel()
        if child is not None:
            engine.schedule_at(
                engine.now + float(child), lambda: log.append((-1 - i, engine.now))
            )

    for i, (time, handle, cancel, child) in enumerate(events):
        if handle:
            handles.append(engine.call_at(float(time), fire, i, cancel, child))
        else:
            engine.schedule_at(float(time), fire, (i, cancel, child))
    for k in precancel:
        if handles:
            handles[k % len(handles)].cancel()
    return log


def next_time(engine):
    nxt = engine.next_event_time()
    return float("inf") if nxt is None else nxt


def drain_in_windows(engine):
    for end in range(1, 11):
        engine.run_before(float(end))
        assert engine.now < end <= next_time(engine)
        engine.pin_clock(float(end))
    engine.run()


def drain_while_counting(engine, stop_after):
    calls = []
    engine.run_while(lambda: calls.append(None) or len(calls) <= stop_after)
    # Stopped by the predicate's first False, or by an empty heap.
    assert len(calls) == stop_after + 1 or engine.pending_count == 0
    engine.run()


def drain_by_steps(engine):
    while engine.step():
        pass


def drain_in_chunks(engine):
    for deadline in (0.0, 1.0, 2.5, 3.0, 5.5):
        engine.run_until(deadline)
        assert engine.now == deadline < next_time(engine)
    engine.run()


@settings(max_examples=300, deadline=None)
@given(EVENTS, st.lists(st.integers(0, 40), max_size=5), st.integers(0, 40))
def test_every_run_method_fires_the_same_events(events, precancel, stop_after):
    """run, run_until, run_before, run_while and step are one loop: any
    mix of them fires the same callbacks, in the same order, at the same
    clock values."""
    drives = [
        lambda eng: eng.run(),
        drain_in_chunks,
        drain_in_windows,
        lambda eng: drain_while_counting(eng, stop_after),
        drain_by_steps,
    ]
    outcomes = []
    for drive in drives:
        engine = Engine()
        log = load(engine, events, precancel)
        drive(engine)
        assert engine.pending_count == 0
        assert engine.events_executed == len(log)
        outcomes.append(log)
    assert all(log == outcomes[0] for log in outcomes[1:])
