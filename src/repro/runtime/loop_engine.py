"""Asyncio adapter for the simulator's timer surface.

Protocol code (peers, the bootstrap server, ``Timer`` /
``PeriodicTimer``) touches exactly two things on its ``engine``:
``engine.now`` (milliseconds) and ``engine.call_at(time, fn, ...)`` /
``engine.call_later(delay, fn, ...)`` returning a handle with
``cancel()`` / ``pending`` / ``time``.
:class:`LoopEngine` provides that same surface on top of a running
asyncio event loop, so the unmodified protocol core drives real
wall-clock timers in the live runtime.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Optional, Set

__all__ = ["LoopEngine", "LoopEvent"]


class LoopEvent:
    """Timer handle compatible with :class:`repro.sim.engine.Event`."""

    __slots__ = ("time", "_handle", "_engine", "_fired", "_cancelled")

    def __init__(self, engine: "LoopEngine", time: float) -> None:
        self.time = time
        self._engine = engine
        self._handle: Optional[asyncio.TimerHandle] = None
        self._fired = False
        self._cancelled = False

    @property
    def pending(self) -> bool:
        return not (self._fired or self._cancelled)

    def cancel(self) -> None:
        if self.pending:
            self._cancelled = True
            if self._handle is not None:
                self._handle.cancel()
            self._engine._events.discard(self)


class LoopEngine:
    """The ``Engine`` timer surface mapped onto ``loop.call_at``.

    ``now`` is milliseconds since this engine was created (protocol
    timeouts are configured in ms).  Outstanding timers are tracked so
    :meth:`close` can cancel them all during shutdown -- the live-node
    equivalent of the simulator simply being dropped.
    """

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        self.loop = loop if loop is not None else asyncio.get_event_loop()
        self._t0 = self.loop.time()
        self._events: Set[LoopEvent] = set()
        self._closed = False

    @property
    def now(self) -> float:
        """Milliseconds elapsed since the engine started."""
        return (self.loop.time() - self._t0) * 1000.0

    def call_at(
        self, time: float, fn: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> LoopEvent:
        """Schedule ``fn(*args, **kwargs)`` at engine time ``time`` (ms);
        a time already past fires on the loop's next turn."""
        event = LoopEvent(self, time)
        if self._closed:
            # Shutdown already started: hand back a dead handle so late
            # protocol callbacks (e.g. from a final message) are inert.
            event._cancelled = True
            return event

        def _fire() -> None:
            event._fired = True
            self._events.discard(event)
            fn(*args, **kwargs)

        event._handle = self.loop.call_at(self._t0 + time / 1000.0, _fire)
        self._events.add(event)
        return event

    def call_later(
        self, delay: float, fn: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> LoopEvent:
        """Schedule ``fn(*args, **kwargs)`` after ``delay`` milliseconds."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.call_at(self.now + delay, fn, *args, **kwargs)

    def close(self) -> None:
        """Cancel every outstanding timer; further schedules are inert."""
        self._closed = True
        for event in list(self._events):
            event.cancel()
        self._events.clear()
