"""Conservative (null-message) time synchronization for sharded runs.

Classic lower-bound-timestamp logic, process-free so it can be unit
tested directly: the coordinator collects each shard's "null message"
(the timestamp of its earliest pending local event, or None when idle)
plus a (count, min delivery time) summary of the cross-shard deliveries
each shard captured, and computes the next safe execution window.

Safety argument: let ``m`` be the minimum over all shards of (earliest
pending local event, earliest undelivered inbound message).  No shard
can execute anything before ``m``, and any event executed at time
``t >= m`` delivers cross-shard messages no earlier than ``t + L``,
where the lookahead ``L`` is the minimum latency any cross-shard hop
can incur (every cross-shard message travels between two *distinct*
physical hosts, so its delay is at least the smaller of the minimum
physical edge latency and the transport's latency floor -- both known
before the run).  Every event strictly below ``m + L`` is therefore
already present in some shard's heap or in a data ring, and all shards
may execute up to (but excluding) ``m + L`` concurrently.  Empty
stretches of simulated time are skipped for free: ``m`` jumps straight
to the next pending timestamp, so a wave waiting on a lookup timeout
costs one window, not timeout/L of them.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

__all__ = ["NullMessageSync", "ShardSyncError"]


class ShardSyncError(RuntimeError):
    """The synchronization state is inconsistent (e.g. global stall)."""


class NullMessageSync:
    """LBTS bookkeeping for ``n_shards`` shards.

    The runner drives it in rounds: :meth:`note_state` with each
    shard's reported next-event time, :meth:`add_summary` with each
    shard's captured outbound deliveries per destination, then
    :meth:`window_end` for the next barrier and :meth:`take_inbox` as
    each shard is sent the window that delivers them.
    """

    def __init__(self, n_shards: int, lookahead: float) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if not (lookahead > 0.0):
            raise ValueError("lookahead must be positive")
        self.n_shards = n_shards
        self.lookahead = float(lookahead)
        self._next_times: List[Optional[float]] = [None] * n_shards
        # In-flight deliveries per destination shard: the messages sit
        # in per-pair data rings, the coordinator only tracks
        # (count, min delivery time) batches.
        self._summaries: List[List[Tuple[int, float]]] = [
            [] for _ in range(n_shards)
        ]

    # ------------------------------------------------------------------
    def note_state(self, shard: int, next_time: Optional[float]) -> None:
        """Record a shard's null message (None = idle, nothing pending)."""
        self._next_times[shard] = next_time

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

    def take_inbox(self, shard: int) -> None:
        """``shard`` drains its inbound rings at this window: forget them."""
        self._summaries[shard] = []
