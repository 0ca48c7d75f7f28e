"""Conservative (null-message) time synchronization for sharded runs.

Classic lower-bound-timestamp logic, process-free so it can be unit
tested directly: the coordinator collects each shard's "null message"
(the timestamp of its earliest pending local event, or None when idle)
plus every captured cross-shard delivery, and computes the next safe
execution window.

Safety argument: let ``m`` be the minimum over all shards of (earliest
pending local event, earliest undelivered inbound message).  No shard
can execute anything before ``m``, and any event executed at time
``t >= m`` delivers cross-shard messages no earlier than ``t + L``,
where the lookahead ``L`` is the minimum latency any cross-shard hop
can incur (every cross-shard message travels between two *distinct*
physical hosts, so its delay is at least the smaller of the minimum
physical edge latency and the transport's latency floor -- both known
before the run).  Every event strictly below ``m + L`` is therefore
already present in some shard's heap or in the coordinator's pending
set, and all shards may execute up to (but excluding) ``m + L``
concurrently.  Empty stretches of simulated time are skipped for free:
``m`` jumps straight to the next pending timestamp, so a wave waiting
on a lookup timeout costs one window, not timeout/L of them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

__all__ = ["NullMessageSync", "ShardSyncError"]


class ShardSyncError(RuntimeError):
    """The synchronization state is inconsistent (e.g. global stall)."""


class NullMessageSync:
    """LBTS bookkeeping for ``n_shards`` logical shards.

    The runner drives it in rounds: :meth:`note_state` with each
    shard's reported next-event time, :meth:`add_messages` with each
    shard's captured outbound deliveries, then :meth:`window_end` for
    the next barrier and :meth:`take_inbox` for what each shard must
    schedule before running it.
    """

    def __init__(self, n_shards: int, lookahead: float) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if not (lookahead > 0.0):
            raise ValueError("lookahead must be positive")
        self.n_shards = n_shards
        self.lookahead = float(lookahead)
        self._next_times: List[Optional[float]] = [None] * n_shards
        # Undelivered cross-shard messages, per destination shard:
        # (deliver_time, origin_shard, origin_order, dst_address, msg).
        self._pending: List[List[tuple]] = [[] for _ in range(n_shards)]
        # Summary-mode pending (forked workers): the messages themselves
        # sit in per-pair data rings, the coordinator only tracks
        # (count, min delivery time) batches per destination shard.
        self._summaries: List[List[Tuple[int, float]]] = [
            [] for _ in range(n_shards)
        ]
        self._order = 0

    # ------------------------------------------------------------------
    def note_state(self, shard: int, next_time: Optional[float]) -> None:
        """Record a shard's null message (None = idle, nothing pending)."""
        self._next_times[shard] = next_time

    def add_messages(
        self, origin_shard: int, outbox: Sequence[Tuple[float, int, int, object]]
    ) -> None:
        """Accept captured deliveries: (deliver_time, dst_shard, dst, msg).

        Capture order within a shard is preserved (it is deterministic,
        being a pure function of that shard's execution), giving every
        in-flight message a stable global ordering key.
        """
        for deliver_time, dst_shard, dst_address, msg in outbox:
            self._pending[dst_shard].append(
                (deliver_time, origin_shard, self._order, dst_address, msg)
            )
            self._order += 1

    def add_summary(
        self, dst_shard: int, count: int, min_time: float
    ) -> None:
        """Account for in-flight messages the coordinator never holds.

        Forked workers move message bodies worker-to-worker through
        shared-memory rings; each worker's state reply carries only a
        per-destination (count, min delivery time) summary.  The floor
        over batch minima equals the floor over the messages themselves
        (min-of-mins), so the LBTS safety argument is unchanged.
        """
        if count > 0:
            self._summaries[dst_shard].append((int(count), float(min_time)))

    # ------------------------------------------------------------------
    def floor(self) -> Optional[float]:
        """Earliest possible next action across all shards, or None."""
        lo: Optional[float] = None
        for t in self._next_times:
            if t is not None and (lo is None or t < lo):
                lo = t
        for box in self._pending:
            for entry in box:
                if lo is None or entry[0] < lo:
                    lo = entry[0]
        for batches in self._summaries:
            for _count, min_time in batches:
                if lo is None or min_time < lo:
                    lo = min_time
        return lo

    def window_end(self) -> Optional[float]:
        """Barrier for the next round: every shard may run ``< window_end``.

        None means the whole simulation is idle -- no shard has pending
        events and no message is in flight.
        """
        lo = self.floor()
        if lo is None:
            return None
        return lo + self.lookahead

    def take_inbox(self, shard: int) -> List[Tuple[float, int, object]]:
        """Drain pending deliveries for ``shard``, in deterministic order.

        Sorted by (deliver_time, origin_shard, capture order); the
        worker schedules them in this order, so equal-time deliveries
        tie-break identically on every run.
        """
        self._summaries[shard] = []
        box = self._pending[shard]
        if not box:
            return []
        box.sort(key=lambda e: (e[0], e[1], e[2]))
        self._pending[shard] = []
        return [(e[0], e[3], e[4]) for e in box]

    @property
    def in_flight(self) -> int:
        """Number of captured, not yet delivered cross-shard messages."""
        return sum(len(box) for box in self._pending) + sum(
            count for batches in self._summaries for count, _t in batches
        )
