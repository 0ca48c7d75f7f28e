"""Lookup bookkeeping: latency, failure ratio, and *connum*.

The paper's evaluation metrics (Section 6) are all per-lookup
quantities:

* **lookup latency** -- "time difference between the time when the peer
  issues the data lookup request and the time when the peer receives
  the data", successful lookups only;
* **lookup failure ratio** -- failed lookups / total lookups, where a
  failure is an expired lookup timer;
* **connum** -- "the number of peers all the data lookup requests
  contact during the simulation".

:class:`QueryRegistry` is a measurement-only shared object: every peer
that receives a lookup-related message calls :meth:`contact`, origins
call :meth:`start`/:meth:`succeed`/:meth:`fail`.  It deliberately sits
outside the message plane (the real system would not have it; NS2
experiments use the same trick via its trace files).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

__all__ = ["QueryRecord", "QueryRegistry", "QueryStats"]

PENDING = "pending"
SUCCESS = "success"
FAILED = "failed"


@dataclass(slots=True)
class QueryRecord:
    """Lifecycle of one lookup operation.

    Contact counters live in flat arrays on the registry (indexed by
    query id) so the per-message :meth:`QueryRegistry.contact` hot path
    is two list operations; the record exposes them as read-only
    properties for compatibility.
    """

    query_id: int
    origin: int
    key: str
    d_id: int
    start_time: float
    local: bool  # did the d_id fall in the origin's own s-network?
    status: str = PENDING
    end_time: float = float("nan")
    holder: int = -1
    refloods: int = 0
    via_bypass: bool = False
    hops: int = 0  # overlay hops travelled by the winning answer path
    registry: Optional["QueryRegistry"] = field(
        default=None, repr=False, compare=False
    )

    @property
    def contacts(self) -> int:
        """Peers contacted on behalf of this lookup (registry-backed)."""
        reg = self.registry
        if reg is None:
            return 0
        i = self.query_id - reg._base
        return reg._contacts[i] if 0 <= i < len(reg._contacts) else 0

    @property
    def duplicate_contacts(self) -> int:
        """Duplicate flood receipts for this lookup (registry-backed)."""
        reg = self.registry
        if reg is None:
            return 0
        i = self.query_id - reg._base
        return reg._duplicates[i] if 0 <= i < len(reg._duplicates) else 0

    @property
    def latency(self) -> float:
        """Wall-clock (simulated) latency; NaN while pending/failed."""
        if self.status != SUCCESS:
            return float("nan")
        return self.end_time - self.start_time


@dataclass(frozen=True)
class QueryStats:
    """Aggregates over a set of completed lookups (paper's metrics)."""

    total: int
    successes: int
    failures: int
    pending: int
    failure_ratio: float
    mean_latency: float
    median_latency: float
    p95_latency: float
    connum: int
    mean_contacts_per_lookup: float
    duplicate_contacts: int
    local_fraction: float

    def __str__(self) -> str:
        return (
            f"lookups={self.total} fail_ratio={self.failure_ratio:.4f} "
            f"mean_latency={self.mean_latency:.1f}ms connum={self.connum}"
        )


class QueryRegistry:
    """Tracks every lookup in flight and aggregates the paper's metrics."""

    def __init__(self) -> None:
        self._records: Dict[int, QueryRecord] = {}
        self._next_id = 0
        # Contact counters, indexed by ``query_id - _base``.  Query ids
        # are assigned densely, so flat lists beat a dict of records on
        # the per-message hot path; ``_base`` tracks how many ids were
        # retired by reset() (the id counter stays monotone).
        self._base = 0
        self._contacts: List[int] = []
        self._duplicates: List[int] = []
        self.unresolved = 0

    # ------------------------------------------------------------------
    def start(
        self, origin: int, key: str, d_id: int, time: float, local: bool
    ) -> QueryRecord:
        """Register a new lookup; returns its record (with fresh id)."""
        qid = self._next_id
        self._next_id += 1
        rec = QueryRecord(
            query_id=qid, origin=origin, key=key, d_id=d_id,
            start_time=time, local=local, registry=self,
        )
        self._records[qid] = rec
        self._contacts.append(0)
        self._duplicates.append(0)
        self.unresolved += 1
        return rec

    def rebase(self, id_base: int) -> None:
        """Start assigning query ids at ``id_base``.

        Flood duplicate-suppression keys on ``(query_id, attempt)``
        with no origin, which is safe in the simulator (one shared
        registry, globally unique ids) but not between live nodes that
        each count from zero: two origins reusing an id suppress each
        other's floods and only recover on the reflood timer.  A live
        node therefore claims a disjoint id block before its first
        lookup; the flat contact arrays are indexed relative to
        ``_base``, so nothing else changes.
        """
        if self._records or self._next_id != self._base:
            raise RuntimeError("rebase() must run before any lookup starts")
        self._next_id = self._base = int(id_base)

    def get(self, query_id: int) -> Optional[QueryRecord]:
        return self._records.get(query_id)

    def contact(self, query_id: int, duplicate: bool = False) -> None:
        """One more peer was contacted on behalf of this lookup.

        Counted regardless of the lookup's current status: flood packets
        still in flight after the answer arrived consumed bandwidth,
        which is exactly what connum approximates.  Unknown (or retired)
        query ids are ignored, as before.
        """
        i = query_id - self._base
        if duplicate:
            counts = self._duplicates
        else:
            counts = self._contacts
        if 0 <= i < len(counts):
            counts[i] += 1

    def succeed(self, query_id: int, time: float, holder: int, hops: int = 0) -> bool:
        """Mark success (first answer wins); returns False if too late."""
        rec = self._records.get(query_id)
        if rec is None or rec.status != PENDING:
            return False
        rec.status = SUCCESS
        rec.end_time = time
        rec.holder = holder
        rec.hops = hops
        self.unresolved -= 1
        return True

    def fail(self, query_id: int, time: float) -> bool:
        """Mark failure (lookup timer expired with no answer)."""
        rec = self._records.get(query_id)
        if rec is None or rec.status != PENDING:
            return False
        rec.status = FAILED
        rec.end_time = time
        self.unresolved -= 1
        return True

    # ------------------------------------------------------------------
    def note_reflood(self, query_id: int) -> None:
        rec = self._records.get(query_id)
        if rec is not None:
            rec.refloods += 1

    def note_bypass(self, query_id: int) -> None:
        rec = self._records.get(query_id)
        if rec is not None:
            rec.via_bypass = True

    # ------------------------------------------------------------------
    def records(self) -> List[QueryRecord]:
        return list(self._records.values())

    def reset(self) -> None:
        """Drop all records (keeps the id counter monotone).

        A live node calls this whenever ``unresolved`` reaches 0, so its
        records stay bounded by the lookups in flight.
        """
        self._records.clear()
        self._base = self._next_id
        self._contacts.clear()
        self._duplicates.clear()
        self.unresolved = 0

    def stats(self) -> QueryStats:
        """Aggregate the paper's metrics over all finished lookups.

        Single pass over the records; contact totals come straight from
        the flat counter arrays.
        """
        total = len(self._records)
        successes = failures = pending = local = 0
        latencies: List[float] = []
        for r in self._records.values():
            status = r.status
            if status == SUCCESS:
                successes += 1
                latencies.append(r.end_time - r.start_time)
            elif status == FAILED:
                failures += 1
            else:
                pending += 1
            if r.local:
                local += 1
        finished = successes + failures
        connum = sum(self._contacts)
        duplicates = sum(self._duplicates)
        if latencies:
            arr = np.array(latencies, dtype=float)
            mean_latency = float(arr.mean())
            median_latency = float(np.median(arr))
            p95_latency = float(np.percentile(arr, 95))
        else:
            mean_latency = median_latency = p95_latency = float("nan")
        return QueryStats(
            total=total,
            successes=successes,
            failures=failures,
            pending=pending,
            failure_ratio=(failures / finished) if finished else 0.0,
            mean_latency=mean_latency,
            median_latency=median_latency,
            p95_latency=p95_latency,
            connum=connum,
            mean_contacts_per_lookup=(connum / total) if total else 0.0,
            duplicate_contacts=duplicates,
            local_fraction=(local / total) if total else 0.0,
        )
