"""Shard-local state: peer stubs, array-backed peer state, and the
shard-aware query registry.

A sharded run (see :mod:`repro.shard.runner`) runs the construction
phases once, forks every worker from the result and then partitions
only the lookup phase.  Three representations support that split:

* :class:`PeerStub` -- what a worker keeps of a peer it does *not* own:
  just the fields the transport's delay model reads.  Stubs raise on
  ``receive`` so a partitioning bug is a crash, never a silent
  divergence.
* :class:`CompactPeerState` -- a numpy columnar snapshot of per-peer
  protocol state (ids, ring pointers, liveness, anchors, item counts),
  taken once after the construction phases.  The coordinator computes
  partitions and per-peer metrics from these flat arrays instead of
  walking a million-object graph.
* :class:`ShardQueryRegistry` -- a :class:`~repro.core.lookup.QueryRegistry`
  that accepts contacts for lookups owned by *other* shards and logs
  every contact with its simulated time, which is what lets the merge
  step reproduce the single-process counters bit-for-bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.lookup import QueryRegistry

__all__ = ["PeerStub", "CompactPeerState", "ShardQueryRegistry", "SHARD_ID_BITS"]

# Query ids are rebased per shard to ``shard_index << SHARD_ID_BITS``:
# ids stay globally unique (flood duplicate-suppression keys on the id)
# and the merge step can recover ``(shard, local index)`` from any id.
SHARD_ID_BITS = 32


class PeerStub:
    """Delay-model residue of a peer owned by another shard.

    The transport reads ``host``/``alive`` when computing a delivery and
    the system's capacity resolver reads ``capacity``; everything else
    about a foreign peer is unreachable by construction -- its messages
    are captured at the shard boundary before delivery.  ``receive``
    therefore raises: if it ever runs, the shard filter is broken.
    """

    __slots__ = ("address", "host", "alive", "capacity", "role")

    def __init__(
        self, address: int, host: int, alive: bool, capacity: float, role: str
    ) -> None:
        self.address = address
        self.host = host
        self.alive = alive
        self.capacity = capacity
        self.role = role

    def receive(self, msg) -> None:
        raise RuntimeError(
            f"peer {self.address} is owned by another shard but received "
            f"{type(msg).__name__}: cross-shard capture failed"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<PeerStub addr={self.address} host={self.host} alive={self.alive}>"


class CompactPeerState:
    """Columnar (numpy) snapshot of the per-peer protocol state.

    Rows are sorted by overlay address, which equals the peer-creation
    order -- the same order :meth:`HybridSystem.data_distribution`
    iterates -- so array reductions reproduce the object-walk results
    exactly.
    """

    __slots__ = (
        "address", "host", "p_id", "alive", "is_t", "anchor",
        "capacity", "items",
    )

    def __init__(self, system) -> None:
        peers = sorted(system.peers.values(), key=lambda p: p.address)
        n = len(peers)
        self.address = np.fromiter((p.address for p in peers), dtype=np.int64, count=n)
        self.host = np.fromiter((p.host for p in peers), dtype=np.int64, count=n)
        self.p_id = np.fromiter(
            ((p.p_id if p.p_id is not None else 0) for p in peers),
            dtype=np.uint64, count=n,
        )
        self.alive = np.fromiter((p.alive for p in peers), dtype=bool, count=n)
        self.is_t = np.fromiter((p.role == "t" for p in peers), dtype=bool, count=n)
        # Partition key: the s-network anchor (t-peers anchor themselves).
        self.anchor = np.fromiter(
            ((p.address if p.role == "t" else p.t_peer) for p in peers),
            dtype=np.int64, count=n,
        )
        self.capacity = np.fromiter((p.capacity for p in peers), dtype=np.float64, count=n)
        self.items = np.fromiter((len(p.database) for p in peers), dtype=np.int64, count=n)

    def __len__(self) -> int:
        return len(self.address)

    @property
    def nbytes(self) -> int:
        """Total bytes held by the column arrays."""
        return sum(getattr(self, name).nbytes for name in self.__slots__)

    def counts(self) -> Tuple[int, int]:
        """(alive t-peers, alive s-peers) -- the CellResult tail fields."""
        alive = self.alive
        n_t = int(np.count_nonzero(alive & self.is_t))
        n_s = int(np.count_nonzero(alive & ~self.is_t))
        return n_t, n_s

    def data_distribution(self) -> np.ndarray:
        """Items per alive peer, identical to the object-graph walk."""
        return self.items[self.alive].copy()


class ShardQueryRegistry(QueryRegistry):
    """Query registry for one shard of a sharded cell run.

    Differences from the base registry, all in service of an exact merge
    (:func:`repro.shard.runner.merge_registries`):

    * ids are rebased to ``shard_index << SHARD_ID_BITS`` via
      :meth:`configure`, so every id is globally unique;
    * :meth:`contact` accepts *foreign* ids -- lookups owned by other
      shards whose flood/ring messages crossed into this one -- and
      accumulates them in side dicts instead of silently dropping them;
    * every contact is also logged with its simulated time.  The
      coordinator folds entries that are final after each wave
      (:meth:`fold`) and, at the end of the phase, undoes the counts
      recorded past the single-process stopping point (:meth:`trim`):
      windows are allowed to overrun the last resolution, the metrics
      are not;
    * the latest resolution time is tracked in :attr:`max_end`
      (monotone), from which the coordinator derives each wave's global
      resolution timestamp.
    """

    def __init__(self) -> None:
        super().__init__()
        self.shard_index = 0
        self._engine = None
        self.foreign_contacts: Dict[int, int] = {}
        self.foreign_duplicates: Dict[int, int] = {}
        self._contact_log: List[Tuple[float, int, bool]] = []
        self.max_end = float("-inf")

    def configure(self, shard_index: int, engine) -> None:
        """Bind the registry to its shard; must run before any lookup."""
        self.shard_index = int(shard_index)
        self._engine = engine
        self.rebase(self.shard_index << SHARD_ID_BITS)

    # ------------------------------------------------------------------
    def contact(self, query_id: int, duplicate: bool = False) -> None:
        i = query_id - self._base
        if duplicate:
            counts = self._duplicates
        else:
            counts = self._contacts
        if 0 <= i < len(counts):
            counts[i] += 1
        else:
            foreign = self.foreign_duplicates if duplicate else self.foreign_contacts
            foreign[query_id] = foreign.get(query_id, 0) + 1
        self._contact_log.append((self._engine.now, query_id, duplicate))

    def succeed(self, query_id: int, time: float, holder: int, hops: int = 0) -> bool:
        ok = super().succeed(query_id, time, holder, hops)
        if ok and time > self.max_end:
            self.max_end = time
        return ok

    def fail(self, query_id: int, time: float) -> bool:
        ok = super().fail(query_id, time)
        if ok and time > self.max_end:
            self.max_end = time
        return ok

    # ------------------------------------------------------------------
    def fold(self, safe_time: float) -> None:
        """Discard log entries at or before ``safe_time``.

        Called at each wave barrier with the wave's global resolution
        time: the final cut can only move forward, so those counts can
        never be trimmed and the log need not keep growing.
        """
        self._contact_log = [e for e in self._contact_log if e[0] > safe_time]

    def trim(self, cut_time: float) -> None:
        """Undo contacts recorded strictly after ``cut_time``.

        The single-process run stops at the event that resolves the last
        lookup (time ``cut_time``); shard windows run past it.  Contacts
        from that overrun are subtracted so the merged counters match
        the single-process run exactly.  Ties at ``cut_time`` are kept:
        the resolving event itself executed in both runs.
        """
        for time, query_id, duplicate in self._contact_log:
            if time <= cut_time:
                continue
            i = query_id - self._base
            counts = self._duplicates if duplicate else self._contacts
            if 0 <= i < len(counts):
                counts[i] -= 1
            else:
                foreign = self.foreign_duplicates if duplicate else self.foreign_contacts
                foreign[query_id] -= 1
        self._contact_log = []

    # ------------------------------------------------------------------
    def export_records(self) -> List[tuple]:
        """Records as plain tuples (start order), keyed by local index."""
        out = []
        base = self._base
        for rec in self._records.values():
            out.append((
                rec.query_id - base, rec.origin, rec.key, rec.d_id,
                rec.start_time, rec.local, rec.status, rec.end_time,
                rec.holder, rec.refloods, rec.via_bypass, rec.hops,
            ))
        return out
