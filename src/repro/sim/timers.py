"""Resettable timers built on the event engine.

Lookup expiry with TTL re-flooding, join and rejoin retries and
load-dump acknowledgments use :class:`Timer` -- "fire a callback unless
restarted or cancelled first"; the HELLO heartbeat is a
:class:`PeriodicTimer`.  Per-neighbor crash detection keeps plain
deadlines behind one watchdog event instead (:mod:`repro.core.failures`).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .engine import Engine, Event

__all__ = ["Timer", "PeriodicTimer"]


class Timer:
    """A one-shot timer that can be restarted before it expires.

    Parameters
    ----------
    engine:
        The event engine that provides time.
    timeout:
        Duration from (re)start to expiry.
    on_expire:
        Callback invoked (with no arguments) when the timer fires.
    """

    def __init__(
        self,
        engine: Engine,
        timeout: float,
        on_expire: Callable[[], Any],
    ) -> None:
        if timeout <= 0:
            raise ValueError(f"timer timeout must be positive, got {timeout}")
        self._engine = engine
        self.timeout = timeout
        self._on_expire = on_expire
        self._event: Optional[Event] = None

    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        """True while the timer is armed and has not fired."""
        return self._event is not None and self._event.pending

    @property
    def deadline(self) -> Optional[float]:
        """Absolute expiry time, or None when not running."""
        if self._event is not None and self._event.pending:
            return self._event.time
        return None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the timer ``timeout`` from now (restarts if running)."""
        self.cancel()
        self._event = self._engine.call_later(self.timeout, self._fire)

    def cancel(self) -> None:
        """Disarm the timer without firing it."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._on_expire()


class PeriodicTimer:
    """A timer that fires every ``period`` until stopped.

    Used for the HELLO heartbeat broadcast and the periodic replica and
    swarm rounds.
    """

    def __init__(
        self,
        engine: Engine,
        period: float,
        on_tick: Callable[[], Any],
    ) -> None:
        if period <= 0:
            raise ValueError(f"timer period must be positive, got {period}")
        self._engine = engine
        self.period = period
        self._on_tick = on_tick
        self._event: Optional[Event] = None
        self._stopped = True

    @property
    def running(self) -> bool:
        return not self._stopped

    def start(self) -> None:
        """Begin ticking; first tick is one full period from now."""
        self.stop()
        self._stopped = False
        self._event = self._engine.call_later(self.period, self._fire)

    def stop(self) -> None:
        """Stop ticking."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._on_tick()
        # on_tick may have called stop() (or start(), which re-arms).
        if not self._stopped and self._event is None:
            self._event = self._engine.call_later(self.period, self._fire)
