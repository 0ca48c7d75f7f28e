"""Structured event tracing.

A lightweight publish/subscribe trace bus used by the protocol code to
announce interesting happenings (message sent, peer joined, lookup
failed, timer expired, ...).  Metrics collectors subscribe to the bus;
tests use it to assert on protocol behaviour without reaching into
private state.

Records are plain tuples ``(time, category, payload)`` where ``payload``
is a dict.  Tracing is off unless someone subscribes, so the hot path
costs one membership test against :attr:`TraceBus.wanted`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple

__all__ = ["TraceRecord", "TraceBus"]


class TraceRecord(NamedTuple):
    """One trace event."""

    time: float
    category: str
    payload: Dict[str, Any]


Subscriber = Callable[[TraceRecord], None]


class _EveryCategory:
    """The universal set: what a bus with a ``"*"`` subscriber wants."""

    __slots__ = ()

    def __contains__(self, category: object) -> bool:
        return True


_EVERY_CATEGORY = _EveryCategory()


class TraceBus:
    """Publish/subscribe bus for simulation trace events.

    Subscribers register per-category or for all categories (``"*"``);
    to record, subscribe a list's ``append``.

    Attributes
    ----------
    wanted:
        The categories a publish would reach, as one set-like object
        replaced whenever the listeners change.  Per-message publishers
        guard with ``"category" in trace.wanted`` and build no payload
        otherwise; :meth:`wants` reads the same object, and
        ``bool(wanted)`` is True while anyone listens.
    """

    def __init__(self) -> None:
        # Every key holds a non-empty list (unsubscribe prunes).
        self._subs: Dict[str, List[Subscriber]] = {}
        self._any_subs: List[Subscriber] = []
        self.emitted = 0
        self.wanted = frozenset()

    def _listeners_changed(self) -> None:
        if self._any_subs:
            self.wanted = _EVERY_CATEGORY
        else:
            self.wanted = frozenset(self._subs)

    # ------------------------------------------------------------------
    def wants(self, category: str) -> bool:
        """True if publishing ``category`` would reach any listener.

        Per category: a bus with only a ``"data.stored"`` subscriber
        does not want ``"transport.send"`` records, so hot-path
        publishers can skip building the payload entirely.
        Conservatively True for every category while a wildcard
        subscriber is installed.
        """
        return category in self.wanted

    def subscribe(self, category: str, fn: Subscriber) -> None:
        """Register ``fn`` for records of ``category`` ("*" = all)."""
        if category == "*":
            self._any_subs.append(fn)
        else:
            self._subs.setdefault(category, []).append(fn)
        self._listeners_changed()

    def unsubscribe(self, category: str, fn: Subscriber) -> None:
        """Remove a subscriber; raises ValueError if absent."""
        if category == "*":
            self._any_subs.remove(fn)
        else:
            subs = self._subs.get(category)
            if subs is None:
                raise ValueError(f"no subscriber for category {category!r}")
            subs.remove(fn)
            if not subs:
                del self._subs[category]
        self._listeners_changed()

    def clear(self) -> None:
        """Remove every subscriber."""
        self._subs.clear()
        self._any_subs.clear()
        self._listeners_changed()

    # ------------------------------------------------------------------
    def publish(self, time: float, category: str, **payload: Any) -> None:
        """Emit one trace record to all interested parties."""
        if category not in self.wanted:
            return
        rec = TraceRecord(time, category, payload)
        self.emitted += 1
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
