"""The replication protocol: quorum writes, anti-entropy, failover.

:class:`ReplicationMixin` is composed into the peer class only at
``replication_factor > 1`` (at 1 the peer is the paper's, exactly what
the determinism golden test pins down).  Then every t-peer plays two
parts:

* **owner** of its own segment ``(pred_pid, p_id]`` -- holds the
  primary copy of each item in ``self.database`` and fans a
  :class:`~repro.overlay.messages.ReplicaWrite` chain down its
  ``k - 1`` ring successors;
* **replica holder** for up to ``k - 1`` predecessor segments -- keeps
  those copies in ``self.replicas`` (a second
  :class:`~repro.core.datastore.DataStore`), separate from the primary
  database so lookup-correctness invariants (one authoritative holder
  per item) and ``HybridSystem.total_items()`` accounting stay intact.

Three write flavours share one message:

* ``write_id == -1, ack_to == -1`` -- *untracked*: fire-and-forget
  fan-out used by the sim's bulk ``store`` (no timers, so the sim event
  stream stays cheap and deterministic) and by anti-entropy pushes;
* tracked -- the owner records a pending entry, arms a retry timer and
  reports a verdict (:class:`ReplicaAck` with ``final=True``) to the
  write's origin once ``write_quorum`` copies exist (its own included)
  or retries are exhausted;
* the origin, when it is the owner itself, takes the verdict as a
  direct call -- no self-addressed messages.

Failover is pull-based: whoever assumes ownership of a segment (a
promoted s-peer with an empty database, or the successor absorbing an
excised segment) immediately runs one anti-entropy round; an empty or
stale digest makes every surviving holder answer with its full copy of
the segment, and the new owner re-replicates down its own chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Any, Dict, Optional

from ..core.datastore import DataStore
from ..overlay.messages import (
    ReplicaAck,
    ReplicaSyncRequest,
    ReplicaSyncResponse,
    ReplicaWrite,
)
from ..sim.timers import PeriodicTimer, Timer
from .digest import items_in_segment, segment_digest

__all__ = ["ReplicationMixin"]


@dataclass(slots=True)
class _PendingReplicaWrite:
    """Owner-side state of one tracked write awaiting its quorum."""

    key: str
    value: Any
    d_id: int
    origin: int
    origin_wid: int
    needed: int  # replica acks still required (own copy counted out)
    chain: int  # replica holders addressed per attempt
    acks: set = field(default_factory=set)
    attempts: int = 0
    timer: Optional[Timer] = None


class ReplicationMixin:
    """k-successor replication: quorum writes, repair, failover."""

    # ------------------------------------------------------------------
    # State: containers appear on first use, counters start from the
    # class defaults (a peer that never replicates carries none of it)
    # ------------------------------------------------------------------
    _replica_write_seq = 0
    _replica_sync_timer: Optional[PeriodicTimer] = None

    @cached_property
    def replicas(self) -> DataStore:
        """Copies held for predecessor segments, apart from the primary db."""
        return DataStore(self.idspace)

    @cached_property
    def _replica_pending(self) -> Dict[int, _PendingReplicaWrite]:
        """Owner side: tracked writes awaiting their quorum."""
        return {}

    # ------------------------------------------------------------------
    # Lifecycle hooks and data-plane steps: one authoritative holder per
    # item, the owning t-peer (placement spreading is bypassed -- that
    # is what makes the digest and failover promotion well-defined)
    # ------------------------------------------------------------------
    def _serving(self, old_t: int = -1, crashed: bool = False) -> None:
        # A handoff's leaver takes its replica store along; anti-entropy
        # probes from those owners refill ours.  A promotion starts with
        # an empty database: pull the segment from its replica set (an
        # empty digest makes every holder answer with its full copy).
        if crashed:
            self.emit("replica.failover", kind="promotion", crashed=old_t, p_id=self.p_id)
        self.start_replica_sync()
        if crashed:
            self.replica_resync_now()
        super()._serving(old_t, crashed)

    def _stopping(self) -> None:
        """Cancel every replica timer (leave/crash path)."""
        if self._replica_sync_timer is not None:
            self._replica_sync_timer.stop()
        writes = self._touched("_replica_pending")
        if writes:
            for pending in writes.values():
                if pending.timer is not None:
                    pending.timer.cancel()
            writes.clear()
        super()._stopping()

    def _ring_moved(self, old_lo: int, old_suc: int, failover: bool = True) -> None:
        if self.predecessor_pid != old_lo:  # our copies of it become primary
            self.replica_absorb_segment(self.predecessor_pid, old_lo, failover)
        elif self.successor != old_suc:
            self.replica_resync_now()  # new successor: refresh its copies
        super()._ring_moved(old_lo, old_suc, failover)

    def _store_locally(self, key: str, value: Any, d_id: int, wid: int) -> bool:
        if self.role == "t" and self.owns(d_id):
            self._replica_ingest(key, value, d_id, self.address, origin_wid=wid)
            return True
        return False

    def _store_at_owner(
        self, key: str, value: Any, d_id: int, origin: int, write_id: int
    ) -> None:
        self._replica_ingest(key, value, d_id, origin, origin_wid=write_id)

    def _read_owned(self, key: str) -> Any:
        # Failover window: ownership reached us before the repair pull
        # finished -- serve reads from the replica copy.
        item = self.database.get(key)
        return item if item is not None else self.replicas.get(key)

    # ------------------------------------------------------------------
    # Owner side: ingest + fan-out
    # ------------------------------------------------------------------
    def _replica_ingest(
        self, key: str, value: Any, d_id: int, origin: int, origin_wid: int = -1
    ) -> None:
        """Owner t-peer accepts a write: primary copy, then the chain.

        ``origin_wid == -1`` is the untracked path (sim bulk stores):
        fire-and-forget, no pending state, no timers.
        """
        self._insert_as_holder(key, value, d_id, origin)
        chain = self.config.replication_factor - 1
        if self.successor in (-1, self.address):
            chain = 0  # single-member ring: no holders to address
        if origin_wid == -1:
            if chain > 0:
                self._send_replica_chain(key, value, d_id, ack_to=-1,
                                         write_id=-1, remaining=chain - 1)
            return
        needed = self.config.write_quorum - 1  # our own copy counts
        if needed <= 0:
            # Quorum already satisfied locally: verdict now, replicate
            # untracked behind it (anti-entropy covers any lost copy).
            if chain > 0:
                self._send_replica_chain(key, value, d_id, ack_to=-1,
                                         write_id=-1, remaining=chain - 1)
            self._owner_verdict(origin, origin_wid, True)
            return
        if chain == 0:
            # Quorum > 1 demanded but no holders exist to provide it.
            self._owner_verdict(origin, origin_wid, False)
            return
        self._replica_write_seq += 1
        pwid = self._replica_write_seq
        pending = _PendingReplicaWrite(
            key, value, d_id, origin, origin_wid, needed, chain
        )
        pending.timer = Timer(
            self.engine,
            self.config.replica_ack_timeout,
            partial(self._replica_write_timeout, pwid),
        )
        self._replica_pending[pwid] = pending
        self._send_replica_chain(key, value, d_id, ack_to=self.address,
                                 write_id=pwid, remaining=chain - 1)
        pending.timer.start()

    def _send_replica_chain(
        self, key: str, value: Any, d_id: int,
        ack_to: int, write_id: int, remaining: int,
    ) -> None:
        self.send(
            self.successor,
            ReplicaWrite(
                key=key, value=value, d_id=d_id, owner=self.address,
                ack_to=ack_to, write_id=write_id, remaining=remaining,
            ),
        )

    def _owner_verdict(self, origin: int, origin_wid: int, committed: bool) -> None:
        if origin == self.address:
            self._write_verdict(origin_wid, committed)
        else:
            self.send(
                origin,
                ReplicaAck(
                    write_id=origin_wid, replica=self.address,
                    committed=committed, final=True,
                ),
            )

    def _replica_write_timeout(self, pwid: int) -> None:
        pending = self._replica_pending.get(pwid)
        if pending is None or not self.alive:
            return
        if pending.attempts < self.config.replica_write_retries:
            pending.attempts += 1
            # Re-fan the whole chain: holders that already stored the
            # item re-insert idempotently and re-ack, and a successor
            # substituted in by failover gets its copy on this pass.
            self._send_replica_chain(
                pending.key, pending.value, pending.d_id,
                ack_to=self.address, write_id=pwid,
                remaining=pending.chain - 1,
            )
            pending.timer.start()
            return
        del self._replica_pending[pwid]
        committed = len(pending.acks) >= pending.needed
        self._owner_verdict(pending.origin, pending.origin_wid, committed)

    def on_ReplicaAck(self, msg: ReplicaAck) -> None:
        if msg.final:
            # Owner's verdict arriving back at the write's origin.
            super().on_ReplicaAck(msg)
            return
        pending = self._replica_pending.get(msg.write_id)
        if pending is None:
            return  # quorum already met, or verdict already issued
        if msg.committed:
            pending.acks.add(msg.replica)
        if len(pending.acks) >= pending.needed:
            del self._replica_pending[msg.write_id]
            if pending.timer is not None:
                pending.timer.cancel()
            self._owner_verdict(pending.origin, pending.origin_wid, True)

    # ------------------------------------------------------------------
    # Replica-holder side
    # ------------------------------------------------------------------
    def on_ReplicaWrite(self, msg: ReplicaWrite) -> None:
        if msg.owner == self.address:
            return  # chain wrapped the whole ring back to the owner
        if self.role != "t":
            # Promotion/handoff race: the chain reached an s-peer whose
            # t-peer is the intended holder.
            self.send(self.t_peer, msg)
            return
        if self.owns(msg.d_id):
            # Ownership moved to us before the copy arrived (failover
            # landed first): adopt it as a primary copy.  No
            # "data.stored" emit -- the original owner already counted
            # this item.
            self.database.insert(msg.key, msg.value, msg.d_id)
        else:
            self.replicas.insert(msg.key, msg.value, msg.d_id)
        if msg.ack_to not in (-1, self.address):
            self.send(
                msg.ack_to,
                ReplicaAck(write_id=msg.write_id, replica=self.address),
            )
        if msg.remaining > 0 and self.successor not in (-1, self.address, msg.owner):
            self.send(
                self.successor,
                ReplicaWrite(
                    key=msg.key, value=msg.value, d_id=msg.d_id,
                    owner=msg.owner, ack_to=msg.ack_to,
                    write_id=msg.write_id, remaining=msg.remaining - 1,
                ),
            )

    # ------------------------------------------------------------------
    # Anti-entropy
    # ------------------------------------------------------------------
    def start_replica_sync(self) -> None:
        """Arm the periodic digest exchange (owner role)."""
        if self.config.replica_sync_period <= 0 or self.role != "t" or not self.alive:
            return
        if self._replica_sync_timer is None:
            self._replica_sync_timer = PeriodicTimer(
                self.engine,
                self.config.replica_sync_period,
                self._replica_sync_tick,
            )
        if not self._replica_sync_timer.running:
            self._replica_sync_timer.start()

    def _replica_sync_tick(self) -> None:
        if self.role == "t" and self.alive:
            self.replica_resync_now()

    def replica_resync_now(self) -> None:
        """One anti-entropy round: digest our segment down the chain."""
        if self.role != "t":
            return
        if self.successor in (-1, self.address):
            return
        lo, hi = self.predecessor_pid, self.p_id
        own = items_in_segment(self.database, self.idspace, lo, hi)
        self.send(
            self.successor,
            ReplicaSyncRequest(
                lo=lo, hi=hi, digest=segment_digest(own),
                origin=self.address,
                remaining=self.config.replication_factor - 2,
            ),
        )

    def on_ReplicaSyncRequest(self, msg: ReplicaSyncRequest) -> None:
        if msg.origin == self.address:
            return  # probe wrapped the whole ring
        if self.role != "t":
            self.send(self.t_peer, msg)
            return
        mine = items_in_segment(self.replicas, self.idspace, msg.lo, msg.hi)
        if self.owns(msg.lo) or self.owns(msg.hi):
            # Segment boundaries moved under the probe (we absorbed part
            # of the range): answer from the primary db too, so the
            # owner-of-record learns what we promoted.
            mine = mine + items_in_segment(self.database, self.idspace, msg.lo, msg.hi)
        if segment_digest(mine) != msg.digest:
            self.send(
                msg.origin,
                ReplicaSyncResponse(
                    lo=msg.lo, hi=msg.hi,
                    items=tuple((i.key, i.value, i.d_id) for i in mine),
                ),
            )
        if msg.remaining > 0 and self.successor not in (-1, self.address, msg.origin):
            self.send(
                self.successor,
                ReplicaSyncRequest(
                    lo=msg.lo, hi=msg.hi, digest=msg.digest,
                    origin=msg.origin, remaining=msg.remaining - 1,
                ),
            )

    def on_ReplicaSyncResponse(self, msg: ReplicaSyncResponse) -> None:
        """Owner: pull what we miss, push what the responder misses."""
        if self.role != "t":
            return
        pulled = 0
        for key, value, d_id in msg.items:
            if self.owns(d_id) and self.database.get(key) is None:
                # A copy survived somewhere we lost the primary (crash
                # failover): restore it.  No "data.stored" emit -- the
                # item was already counted when first stored.
                self.database.insert(key, value, d_id)
                pulled += 1
        responder_keys = {key for key, _value, _d_id in msg.items}
        behind = [
            item
            for item in items_in_segment(self.database, self.idspace, msg.lo, msg.hi)
            if item.key not in responder_keys
        ]
        for item in behind:
            self.send(
                msg.sender,
                ReplicaWrite(
                    key=item.key, value=item.value, d_id=item.d_id,
                    owner=self.address, ack_to=-1, write_id=-1, remaining=0,
                ),
            )
        if pulled or behind:
            self.emit(
                "replica.repair", items=pulled + len(behind),
                pulled=pulled, pushed=len(behind), source=msg.sender,
            )
        self.emit("replica.lag", items=len(behind), replica=msg.sender)

    # ------------------------------------------------------------------
    # Failover (the Section 4 crash machinery, through the hooks above)
    # ------------------------------------------------------------------
    def replica_absorb_segment(
        self, new_lo: int, old_lo: int, failover: bool = True
    ) -> None:
        """Our segment grew down to ``new_lo``: copies we held for the
        absorbed range are now primary.

        ``failover=False`` marks the graceful-leave variant (the
        leaver's acked load dump is the primary data source; promoting
        our copies just closes the window until it lands) -- no
        ``replica.failover`` event in that case.
        """
        if new_lo == old_lo:
            return
        promoted = self.replicas.extract_segment(new_lo, old_lo)
        for item in promoted:
            if self.database.get(item.key) is None:
                self.database.insert_item(item)
        if failover:
            self.emit(
                "replica.failover", kind="absorb", crashed=-1,
                p_id=self.p_id, items=len(promoted),
            )
        # Re-replicate the widened segment down our own chain (our
        # successors never held the absorbed range at depth k-1).
        self.replica_resync_now()
