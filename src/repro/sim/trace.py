"""Structured event tracing.

A lightweight publish/subscribe trace bus used by the protocol code to
announce interesting happenings (message sent, peer joined, lookup
failed, timer expired, ...).  Metrics collectors subscribe to the bus;
tests use it to assert on protocol behaviour without reaching into
private state.

Records are plain tuples ``(time, category, payload)`` where ``payload``
is a dict.  Tracing is off unless someone subscribes, so the hot path
costs a single attribute check.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, List, NamedTuple, Optional

__all__ = ["TraceRecord", "TraceBus"]


class TraceRecord(NamedTuple):
    """One trace event."""

    time: float
    category: str
    payload: Dict[str, Any]


Subscriber = Callable[[TraceRecord], None]


class TraceBus:
    """Publish/subscribe bus for simulation trace events.

    Subscribers register per-category or for all categories (``"*"``).
    A built-in ring-buffer recorder can be enabled for debugging.
    """

    def __init__(self) -> None:
        self._subs: Dict[str, List[Subscriber]] = defaultdict(list)
        self._any_subs: List[Subscriber] = []
        self._record_buffer: Optional[List[TraceRecord]] = None
        self._record_categories: Optional[set] = None
        self.emitted = 0
        # Bumped whenever the set of listeners changes; hot-path
        # publishers cache their wants() answer against it.
        self.version = 0

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """True if anyone is listening (publish is a no-op otherwise)."""
        return bool(self._subs) or bool(self._any_subs) or self._record_buffer is not None

    def wants(self, category: str) -> bool:
        """True if publishing ``category`` would reach any listener.

        Unlike :attr:`active` (bus-global), this is per-category: a bus
        with only a ``"data.stored"`` subscriber does not want
        ``"transport.send"`` records, so hot-path publishers can skip
        building the payload entirely.  Conservatively True while
        recording or when a wildcard subscriber is installed.
        """
        if self._any_subs or self._record_buffer is not None:
            return True
        return bool(self._subs.get(category))

    def subscribe(self, category: str, fn: Subscriber) -> None:
        """Register ``fn`` for records of ``category`` ("*" = all)."""
        if category == "*":
            self._any_subs.append(fn)
        else:
            self._subs[category].append(fn)
        self.version += 1

    def unsubscribe(self, category: str, fn: Subscriber) -> None:
        """Remove a subscriber; raises ValueError if absent."""
        if category == "*":
            self._any_subs.remove(fn)
        else:
            subs = self._subs[category]
            subs.remove(fn)
            if not subs:
                # Prune the empty list so ``active`` (truthiness of the
                # dict) goes back to False after the last listener
                # leaves -- otherwise publish keeps building records
                # nobody receives.
                del self._subs[category]
        self.version += 1

    def clear(self) -> None:
        """Remove every subscriber and stop recording."""
        self._subs.clear()
        self._any_subs.clear()
        self._record_buffer = None
        self._record_categories = None
        self.version += 1

    # ------------------------------------------------------------------
    def start_recording(self, categories: Optional[List[str]] = None) -> None:
        """Begin buffering records (optionally only given categories)."""
        self._record_buffer = []
        self._record_categories = set(categories) if categories else None
        self.version += 1

    def stop_recording(self) -> List[TraceRecord]:
        """Stop buffering and return what was captured."""
        buf = self._record_buffer or []
        self._record_buffer = None
        self._record_categories = None
        self.version += 1
        return buf

    @property
    def records(self) -> List[TraceRecord]:
        """Records captured so far (empty when not recording)."""
        return list(self._record_buffer or [])

    # ------------------------------------------------------------------
    def publish(self, time: float, category: str, **payload: Any) -> None:
        """Emit one trace record to all interested parties."""
        if not self.active:
            return
        rec = TraceRecord(time, category, payload)
        self.emitted += 1
        if self._record_buffer is not None and (
            self._record_categories is None or category in self._record_categories
        ):
            self._record_buffer.append(rec)
        # Iterate over snapshots: a subscriber may unsubscribe itself
        # (or others) while handling the record, and list mutation
        # during iteration would silently skip the next subscriber.
        subs = self._subs.get(category)
        if subs:
            for fn in tuple(subs):
                fn(rec)
        if self._any_subs:
            for fn in tuple(self._any_subs):
                fn(rec)
