"""Discrete-event simulation engine.

This module is the substrate that replaces NS2 in the original paper's
evaluation.  It provides a classic event-heap simulator: callbacks are
scheduled at absolute or relative simulated times and executed in
timestamp order.  Ties are broken by insertion order so that runs are
fully deterministic for a given seed.

The hot path is allocation-free beyond one tuple per event: the heap
holds plain ``(time, seq, fn, args)`` tuples, so ordering comparisons
are C-level tuple comparisons instead of Python ``__lt__`` calls.  Only
the *cancellable* minority of events (timers, heartbeats) allocates an
:class:`Event` handle; those ride the heap as ``(time, seq, None,
event)`` entries and are skipped lazily when popped after cancellation,
which keeps :meth:`Event.cancel` O(1).  :attr:`Engine.pending_count`
is derived -- heap length minus the cancelled entries still waiting on
it -- so it is O(1), exact from inside a callback, and costs the
scheduling and dispatch paths nothing.

One loop executes events: ``Engine._drain`` pops, discards cancelled
handles, sets the clock and dispatches; every ``run*`` method is a thin
wrapper choosing its deadline and stop predicate.  The dispatch stays
inline in that loop, not in a per-event helper: one Python frame per
event is the difference between the engine and the protocol dominating
the profile.

Two scheduling tiers:

* :meth:`Engine.schedule_at` -- the fast fire-and-forget tier used for
  message delivery (no handle, not cancellable; ``Transport.send``
  inlines it);
* :meth:`Engine.call_at` / :meth:`Engine.call_later` -- the handle tier
  for anything that may need :meth:`Event.cancel`.

Example
-------
>>> eng = Engine()
>>> hits = []
>>> _ = eng.call_at(5.0, hits.append, "b")
>>> _ = eng.call_later(1.0, hits.append, "a")
>>> eng.run()
2
>>> hits
['a', 'b']
>>> eng.now
5.0
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from math import inf as _INF, nextafter
from typing import Any, Callable, Optional

__all__ = ["Event", "Engine", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised when the engine is driven in an inconsistent way.

    Examples: scheduling an event in the past, or running a finished
    engine with ``strict=True``.
    """


class Event:
    """A scheduled, cancellable callback handle.

    Instances are returned by :meth:`Engine.call_at` /
    :meth:`Engine.call_later` and act as handles: holding one allows the
    caller to :meth:`cancel` the event before it fires.

    Attributes
    ----------
    time:
        Absolute simulated time at which the event fires.
    seq:
        Monotone sequence number used to break ties deterministically.
    fn:
        The callback (keyword arguments already bound); ``None`` once
        the event fired or was cancelled.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_engine")

    def __init__(
        self, engine: "Engine", time: float, seq: int, fn: Callable[..., Any], args: tuple
    ) -> None:
        self._engine = engine
        self.time = time
        self.seq = seq
        self.fn: Optional[Callable[..., Any]] = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing.

        Idempotent, and a true no-op on an event that already fired
        (including from inside its own callback): the handle keeps its
        "fired" state -- ``cancelled`` stays False -- instead of
        retroactively claiming the callback never ran.
        """
        if self.cancelled or self.fn is None:
            return
        # Still on the heap until popped, but no longer live.
        self._engine._cancelled_on_heap += 1
        self.cancelled = True
        # Drop references early so cancelled events pin no memory while
        # they wait to be popped off the heap.
        self.fn = None
        self.args = ()

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and not cancelled/fired."""
        return not self.cancelled and self.fn is not None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6g} seq={self.seq} {state}>"


class Engine:
    """The event loop.

    Parameters
    ----------
    start_time:
        Initial value of the simulated clock (default 0.0).

    Notes
    -----
    * The clock only moves forward, and only while events execute.
    * Callbacks run synchronously; anything they schedule lands back on
      the same heap.
    * ``max_events`` guards (every ``run*`` method) catch accidental
      infinite event cascades in tests.
    * Heap entries are ``(time, seq, fn, args)`` tuples; ``fn is None``
      marks a cancellable :class:`Event` carried in the ``args`` slot.
      ``(time, seq)`` is unique, so tuple comparison never reaches the
      callback.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: list = []
        self._seq = 0
        # Cancelled handles not yet popped: Event.cancel adds one, every
        # lazy discard takes one away.
        self._cancelled_on_heap = 0
        self._events_executed = 0

    # ------------------------------------------------------------------
    # Clock and introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Total number of callbacks executed so far.

        Exact between calls.  A ``run*`` method adds its count on exit,
        so a callback reads the total as of the call's start (:meth:`step`
        counts its one event before dispatching it).
        """
        return self._events_executed

    @property
    def pending_count(self) -> int:
        """Number of live (non-cancelled) events still in the heap (O(1)).

        Exact at every instant, including from inside a callback (the
        event being executed has already left the heap).
        """
        return len(self._heap) - self._cancelled_on_heap

    def __len__(self) -> int:
        return self.pending_count

    # ------------------------------------------------------------------
    # Scheduling -- fast tier (fire-and-forget, not cancellable)
    # ------------------------------------------------------------------
    def schedule_at(self, time: float, fn: Callable[..., Any], args: tuple = ()) -> None:
        """Schedule ``fn(*args)`` at absolute ``time`` without a handle.

        The fast path for bulk traffic (message delivery): pushes one
        plain tuple, allocates no :class:`Event`.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before current time t={self._now}"
            )
        heappush(self._heap, (time, self._seq, fn, args))
        self._seq += 1

    # ------------------------------------------------------------------
    # Scheduling -- handle tier (cancellable)
    # ------------------------------------------------------------------
    def call_at(self, time: float, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Event:
        """Schedule ``fn(*args, **kwargs)`` at absolute time ``time``.

        Returns a cancellable :class:`Event` handle; prefer
        :meth:`schedule_at` for traffic that never cancels.

        Raises
        ------
        SimulationError
            If ``time`` lies in the past.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before current time t={self._now}"
            )
        ev = Event(self, time, self._seq, partial(fn, **kwargs) if kwargs else fn, args)
        heappush(self._heap, (time, self._seq, None, ev))
        self._seq += 1
        return ev

    def call_later(self, delay: float, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Event:
        """Schedule ``fn`` to run ``delay`` time units from now.

        ``delay`` must be non-negative; a zero delay runs the callback
        after all events already scheduled for the current instant.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(self._now + delay, fn, *args, **kwargs)

    def clear(self) -> None:
        """Drop every pending event; the clock and counters stay.

        Cancellable events are cancelled first, so a handle held
        elsewhere reads ``cancelled`` and releases its callback.
        """
        for entry in self._heap:
            if entry[2] is None:
                entry[3].cancel()
        self._heap.clear()
        self._cancelled_on_heap = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next live event; False if none was pending."""
        if self.next_event_time() is None:
            return False
        time, _seq, fn, args = heappop(self._heap)
        if fn is None:
            ev = args
            fn, args = ev.fn, ev.args
            ev.fn = None
        self._now = time
        self._events_executed += 1
        fn(*args)
        return True

    def run(self, max_events: int = 50_000_000) -> int:
        """Run until the heap is exhausted; returns the events executed.

        Raises :class:`SimulationError` once this call passes
        ``max_events`` (almost always an event livelock, e.g. a timer
        rescheduling itself unconditionally); so do the other ``run*``
        methods.
        """
        return self._drain(_INF, None, max_events)

    def run_while(self, predicate: Callable[[], bool], max_events: int = 50_000_000) -> int:
        """Run while ``predicate()`` is true and events remain.

        Useful for "pump the network until this lookup resolves" loops in
        tests and experiments.  The predicate is tested before
        every pop, cancelled heads included.
        """
        return self._drain(_INF, predicate, max_events)

    def run_until(self, deadline: float, max_events: int = 50_000_000) -> int:
        """Run events with ``time <= deadline`` and advance the clock.

        The clock is left at ``deadline`` even if the heap empties
        earlier, matching the common "simulate for T seconds" idiom.
        """
        if deadline < self._now:
            raise SimulationError(
                f"deadline t={deadline} is before current time t={self._now}"
            )
        executed = self._drain(deadline, None, max_events)
        self._now = deadline
        return executed

    def run_before(self, deadline: float, max_events: int = 50_000_000) -> int:
        """Run events with ``time < deadline`` (strictly).

        Unlike :meth:`run_until`, the clock is left at the last executed
        event rather than advanced to the deadline.  This is the window
        primitive of the sharded executor: a shard that negotiated a
        lower-bound timestamp may execute everything strictly below it,
        but its clock must stay free for the coordinator to align at the
        barrier (:meth:`pin_clock`).
        """
        # The largest float below the deadline makes "<=" strict, so the
        # loop needs no second comparison.
        return self._drain(nextafter(deadline, -_INF), None, max_events)

    def _drain(
        self,
        until: float = _INF,
        predicate: Optional[Callable[[], bool]] = None,
        max_events: int = 50_000_000,
    ) -> int:
        """The event loop behind every ``run*`` method.

        Executes events with ``time <= until`` while ``predicate`` (if
        any) holds.  An entry popped past ``until`` goes back on the
        heap and ends the call; cancelled handles are discarded as they
        surface.  Public run methods call this, never one another, so a
        wrapper around any of them sees each call exactly once.
        """
        heap = self._heap
        pop = heappop
        executed = 0
        # _events_executed is maintained via `executed` and written back
        # on exit (including via a callback raising): callbacks observe
        # a momentarily stale events_executed, never a wrong clock or
        # pending_count.
        try:
            while heap:
                if predicate is not None and not predicate():
                    break
                time, seq, fn, args = pop(heap)
                if time > until:
                    heappush(heap, (time, seq, fn, args))
                    break
                if fn is None:
                    ev = args
                    if ev.cancelled:
                        self._cancelled_on_heap -= 1
                        continue
                    fn, args = ev.fn, ev.args
                    # Fired before it runs, so cancel() from inside the
                    # callback sees a consistent handle and is a no-op.
                    ev.fn = None
                self._now = time
                executed += 1
                if executed > max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely an event livelock"
                    )
                fn(*args)
        finally:
            self._events_executed += executed
        return executed

    # ------------------------------------------------------------------
    # Conservative-sync primitives (repro.shard)
    # ------------------------------------------------------------------
    def next_event_time(self) -> Optional[float]:
        """Timestamp of the earliest live event, or ``None`` if idle.

        Cancelled handles at the head of the heap are lazily discarded
        on the way, so the answer reflects only events that will
        actually fire.  This is the "null message" a shard reports to
        the conservative-sync coordinator (see :mod:`repro.shard`).
        """
        heap = self._heap
        while heap and heap[0][2] is None and heap[0][3].cancelled:
            heappop(heap)
            self._cancelled_on_heap -= 1
        return heap[0][0] if heap else None

    def pin_clock(self, time: float) -> None:
        """Set the clock to ``time`` without executing anything.

        The sharded executor uses this to align every shard's clock at a
        synchronization barrier.  Moving *backwards* is allowed -- after
        :meth:`run_before` the clock sits at the last executed event,
        which may lie beyond the globally agreed timestamp -- but only
        while no pending event would end up in the past.
        """
        nxt = self.next_event_time()
        if nxt is not None and nxt < time:
            raise SimulationError(
                f"cannot pin clock to t={time}: next pending event at t={nxt}"
            )
        self._now = float(time)
