"""Trace-bus metric collectors.

:class:`MembershipLog` subscribes to a system's
:class:`~repro.sim.trace.TraceBus` and logs membership events (joins,
departures, promotions, handoffs, crash detections) without touching
protocol code; :class:`~repro.obs.bridge.TraceBridge` counts the same
categories.  Tests use it to assert on protocol behaviour from the
outside.
"""

from __future__ import annotations

from typing import List

from ..sim.trace import TraceBus, TraceRecord

__all__ = ["MembershipLog"]


class MembershipLog:
    """Ordered log of membership-affecting events (for churn tests)."""

    CATEGORIES = (
        "join.complete",
        "peer.departed",
        "peer.crashed",
        "crash.detected",
        "t.promotion",
        "t.handoff",
        "s.rejoined",
        "s.rejoin.retry",
        "server.election",
        "server.excise",
    )

    def __init__(self, bus: TraceBus) -> None:
        self.records: List[TraceRecord] = []
        for cat in self.CATEGORIES:
            bus.subscribe(cat, self.records.append)

    def of(self, category: str) -> List[TraceRecord]:
        return [r for r in self.records if r.category == category]

    def count(self, category: str) -> int:
        return sum(1 for r in self.records if r.category == category)
