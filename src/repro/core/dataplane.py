"""Data insertion and lookup (Section 3.4).

:class:`DataPlaneMixin` implements the two public operations --
``store(key, value)`` and ``lookup(key)`` -- and every message handler
they fan out into:

* local operations when the hashed ``d_id`` falls inside the peer's own
  s-network segment (insert into own database; TTL-bounded tree flood);
* remote operations routed through the t-network ring to the owning
  segment, then flooded there;
* both placement schemes of Section 3.4 -- *direct* (the owning t-peer
  stores everything, causing the imbalance of Fig. 4a-c) and *spread*
  (recursive random spreading over directly connected s-peers,
  Fig. 4d-f);
* origin-side lookup timers with optional TTL-growing refloods.

The segment search is one method, ``_search_segment`` (the flood; the
walk mixin and the BitTorrent-style swarm tracker override it).

Lookup metrics (latency / failure ratio / connum) are recorded in the
shared :class:`~repro.core.lookup.QueryRegistry`; an origin's optional
``on_verdict`` / ``on_done`` callback is how a caller learns that its
write or lookup finished.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Dict, Optional, Tuple

from ..overlay.messages import (
    DataFound,
    FloodQuery,
    LookupRequest,
    ReplicaAck,
    SpreadStore,
    StoreRequest,
)
from ..sim.timers import Timer
from .config import PLACEMENT_SPREAD
from .datastore import DataItem

__all__ = ["DataPlaneMixin"]

#: TTL added per reflood (Section 3.4: "increase the TTL value ... and
#: reflood").
REFLOOD_TTL_STEP = 2

#: ``on_done(found, value, holder)``: how a lookup reports its end.
OnDone = Callable[[bool, Any, int], Any]


@dataclass(slots=True)
class _PendingLookup:
    """Origin-side state of one in-flight lookup."""

    timer: Timer
    ttl: int
    d_id: int
    key: str
    local: bool
    span: int  # trace span id carried on every query message
    on_done: Optional[OnDone]
    attempts: int = 0
    via_bypass: bool = False  # the initial send used a bypass link
    bypass_retry_done: bool = False


class DataPlaneMixin:
    """store/lookup operations and their message handlers."""

    _write_watch_seq = 0

    @cached_property
    def _write_watchers(self) -> Dict[int, Tuple[Callable[[bool, float], Any], float]]:
        """Origin side: callbacks awaiting a write's verdict."""
        return {}

    # ==================================================================
    # Public API
    # ==================================================================
    def store(
        self, key: str, value: Any,
        on_verdict: Optional[Callable[[bool, float], Any]] = None,
    ) -> int:
        """Insert a (key, value) item into the system; returns its d_id.

        "The peer generating the data item first hashes the key into
        this space.  If the d_id lies in the range of the current
        s-network, the data item is inserted to its database ...
        otherwise the data item is sent to the t-peer."

        ``on_verdict(committed, latency_ms)``, if given, runs once: when
        the copy lands (k == 1), or when the owner reaches or gives up on
        ``write_quorum`` copies (k > 1).  Never if the owner crashes
        mid-write, so callers bound the wait (:meth:`cancel_write_watch`).
        """
        d_id = self.idspace.hash_key(key)
        wid = -1 if on_verdict is None else self._watch_write(on_verdict)
        if not self._store_locally(key, value, d_id, wid):
            self.send(
                self.t_peer if self.role == "s" else self.ring_next_hop(d_id),
                StoreRequest(
                    key=key, value=value, d_id=d_id, origin=self.address, write_id=wid
                ),
            )
        return d_id

    def _store_locally(self, key: str, value: Any, d_id: int, wid: int) -> bool:
        """Insert an item of this peer's own s-network here; False if
        ``d_id`` belongs elsewhere."""
        if self.owns_locally(d_id):
            self._insert_as_holder(key, value, d_id, self.address, write_id=wid)
            return True
        return False

    # ------------------------------------------------------------------
    # Write verdicts: a k == 1 put's ack that its copy landed (the
    # replication mixin reuses them for quorum verdicts)
    # ------------------------------------------------------------------
    def _watch_write(self, on_verdict: Callable[[bool, float], Any]) -> int:
        """Track a write :meth:`store` is sending; returns its write id."""
        self._write_watch_seq += 1
        wid = self._write_watch_seq
        self._write_watchers[wid] = (on_verdict, self.engine.now)
        return wid

    def cancel_write_watch(self, on_verdict: Callable[[bool, float], Any]) -> None:
        """Drop ``on_verdict`` from every write it awaits (the origin's
        wait timed out)."""
        watchers = self._write_watchers
        for wid in [w for w, (cb, _t) in watchers.items() if cb is on_verdict]:
            del watchers[wid]

    def _write_verdict(self, wid: int, committed: bool) -> None:
        entry = self._write_watchers.pop(wid, None)
        if entry is None:
            return
        on_verdict, started = entry
        latency = self.engine.now - started
        self.emit("replica.commit", committed=committed, latency=latency)
        on_verdict(committed, latency)

    def on_ReplicaAck(self, msg: ReplicaAck) -> None:
        """The verdict on a write this peer originated."""
        self._write_verdict(msg.write_id, msg.committed)

    def lookup(self, key: str, on_done: Optional[OnDone] = None) -> int:
        """Start a lookup; returns the query id tracked by the registry.

        ``on_done(found, value, holder)`` runs once when the lookup ends
        (before this returns on a local hit); failure is ``(False, None, -1)``.
        """
        d_id = self.idspace.hash_key(key)
        local = self.owns_locally(d_id)
        rec = self.queries.start(self.address, key, d_id, self.engine.now, local)
        qid = rec.query_id
        timer = Timer(self.engine, self.config.lookup_timeout, lambda: self._lookup_expired(qid))
        # Span id: deterministic (address, query) tag carried on every
        # message this lookup spawns, so per-hop trace records across
        # peers (or scraped nodes) can be stitched into one span.
        span = ((self.address & 0xFFFFFFFF) << 24) ^ (qid & 0xFFFFFF)
        pending = _PendingLookup(timer, self.config.ttl, d_id, key, local, span, on_done)
        self.pending_lookups[qid] = pending
        self._launch_lookup(qid, pending)
        return qid

    def _finish_lookup(
        self, qid: int, found: bool, value: Any = None, holder: int = -1,
        hops: int = 0,
    ) -> Optional[_PendingLookup]:
        """End a lookup this peer originated; None (and nothing done) if
        it already ended, e.g. for a late duplicate answer."""
        pending = self.pending_lookups.pop(qid, None)
        if pending is None:
            return None
        pending.timer.cancel()
        if found:
            self.queries.succeed(qid, self.engine.now, holder=holder, hops=hops)
        else:
            self.queries.fail(qid, self.engine.now)
        if pending.on_done is not None:
            pending.on_done(found, value, holder)
        return pending

    # ==================================================================
    # Lookup driving
    # ==================================================================
    def _launch_lookup(
        self, qid: int, pending: _PendingLookup, retry: bool = False
    ) -> None:
        """Send (or, on ``retry``, re-send) a lookup the way its first
        attempt went; a retry skips the own-database/cache check and the
        bypass shortcut, so it rides the authoritative path."""
        pending.timer.start()
        d_id, key = pending.d_id, pending.key
        if not retry:
            # Own database first -- every peer "checks its own
            # database" -- then any surrogate copy in the local cache.
            item = self.database.get(key)
            if item is None and self.cache is not None:
                item = self.cache.get(key, self.engine.now)
            if item is not None:
                self._finish_lookup(qid, True, item.value, self.address)
                if self.wants_trace("lookup.done"):
                    self.emit(
                        "lookup.done", query_id=qid, span=pending.span,
                        hops=0, contacts=0, latency=0.0,
                    )
                return
        if pending.local:
            self._search_segment(
                qid, key, d_id, self.address, pending.ttl, pending.attempts,
                pending.span,
            )
        else:
            self._lookup_remote(qid, pending, retry)

    def _lookup_remote(self, qid: int, pending: _PendingLookup, retry: bool) -> None:
        """Send a lookup for another s-network's item along the t-network."""
        request = LookupRequest(
            d_id=pending.d_id, key=pending.key, origin=self.address, query_id=qid,
            ttl=pending.ttl, attempt=pending.attempts, span_id=pending.span,
        )
        if self.role == "s":
            self.send(self.t_peer, request)
        else:
            self.send(self.ring_next_hop(pending.d_id), request)

    def _search_segment(
        self, qid: int, key: str, d_id: int, origin: int, ttl: int,
        attempt: int, span: int, hops: int = 0,
    ) -> None:
        """Search this peer's own s-network for ``key`` on behalf of
        ``origin`` (this peer, or the remote origin whose lookup reached
        the owning t-peer after ``hops`` ring hops): a TTL flood down
        the tree.  The walk and tracker strategies override it."""
        flood = FloodQuery(
            d_id=d_id, key=key, origin=origin, query_id=qid,
            ttl=ttl, attempt=attempt, span_id=span,
        )
        flood.hop_count = hops
        self.seen_queries.add((qid, attempt))
        fanout = self.send_many(self.flood_targets(), flood)
        if self.wants_trace("flood.fanout"):
            self.emit("flood.fanout", query_id=qid, span=span, fanout=fanout)

    def _lookup_expired(self, qid: int) -> None:
        pending = self.pending_lookups.get(qid)
        if pending is None:
            return
        retry_budget = self.config.max_refloods
        if pending.via_bypass:
            # A stale bypass may have flooded the wrong s-network; one
            # retry through the authoritative t-network is always owed
            # on top of the configured refloods.
            retry_budget += 1
        if pending.attempts < retry_budget:
            pending.attempts += 1
            if pending.via_bypass and not pending.bypass_retry_done:
                # Same TTL, but via the t-network this time.
                pending.bypass_retry_done = True
            else:
                pending.ttl += REFLOOD_TTL_STEP
                self.queries.note_reflood(qid)
            self._launch_lookup(qid, pending, retry=True)
            return
        self._finish_lookup(qid, False)
        self.emit("lookup.failed", query_id=qid, key=pending.key)

    # ==================================================================
    # Lookup message handlers
    # ==================================================================
    def on_LookupRequest(self, msg: LookupRequest) -> None:
        """Ring leg of a remote lookup."""
        trace = self.trace
        if trace is not None and "lookup.hop" in trace.wanted:
            self.emit(
                "lookup.hop", span=msg.span_id, query_id=msg.query_id,
                hop=msg.hop_count + 1, kind="ring",
            )
        if self.role != "t":
            # Stale t-peer pointer (handoff in flight): re-route.
            # Single-destination re-send of the same object, so the
            # in-place hop bump is safe (see TransportBase contract).
            msg.hop_count += 1
            self.send(self.t_peer, msg)
            return
        self.queries.contact(msg.query_id)
        if self._liveness:
            self.note_query_activity(msg.sender, msg.query_id)
        if self.cache is not None:
            cached = self.cache.get(msg.key, self.engine.now)
            if cached is not None:
                # Surrogate copy: answer without riding the rest of the
                # ring (the caching scheme's load diversion).
                self._answer(msg.origin, msg.query_id, cached, hops=msg.hop_count + 1)
                return
        # self.owns(msg.d_id), inlined: one test per ring hop.
        pred = self.predecessor_pid
        mask = self.idspace._mask
        span = (self.p_id - pred) & mask
        if not (span == 0 or 0 < ((msg.d_id - pred) & mask) <= span):
            msg.hop_count += 1
            # ring_next_hop, inlined for the plain successor walk; and
            # transport.send called directly, not through ``self.send``.
            nxt = self.ring_next_hop(msg.d_id) if self.fingers else self.successor
            self.transport.send(self, nxt, msg)
            return
        item = self._read_owned(msg.key)
        if item is not None:
            self._answer(msg.origin, msg.query_id, item, hops=msg.hop_count + 1)
            return
        self._search_segment(
            msg.query_id, msg.key, msg.d_id, msg.origin, msg.ttl, msg.attempt,
            msg.span_id, hops=msg.hop_count + 1,
        )

    def _read_owned(self, key: str) -> Optional[DataItem]:
        """The owning t-peer's copy of ``key``, if it holds one."""
        return self.database.get(key)

    def on_FloodQuery(self, msg: FloodQuery) -> None:
        """Gnutella-style flood step inside the s-network tree."""
        seen_key = (msg.query_id, msg.attempt)
        if seen_key in self.seen_queries:
            # Only possible over mesh-ablation extra links; the tree
            # delivers each query exactly once (Section 3.2.2).
            self.queries.contact(msg.query_id, duplicate=True)
            return
        self.seen_queries.add(seen_key)
        self.queries.contact(msg.query_id)
        if self._liveness:
            self.note_query_activity(msg.sender, msg.query_id)
        trace = self.trace
        if trace is not None and "lookup.hop" in trace.wanted:
            self.emit(
                "lookup.hop", span=msg.span_id, query_id=msg.query_id,
                hop=msg.hop_count + 1, kind="flood",
            )
        item = self.database.get(msg.key)
        if item is None and self.cache is not None:
            item = self.cache.get(msg.key, self.engine.now)
        if item is not None:
            # "the peer will stop flooding and send the data item to the
            # peer requesting the data item directly."
            self._answer(msg.origin, msg.query_id, item, hops=msg.hop_count + 1)
            return
        if msg.ttl > 1:
            fwd = FloodQuery(
                d_id=msg.d_id, key=msg.key, origin=msg.origin,
                query_id=msg.query_id, ttl=msg.ttl - 1, attempt=msg.attempt,
                span_id=msg.span_id,
            )
            fwd.hop_count = msg.hop_count + 1
            fanout = self.send_many(self.flood_targets(exclude=msg.sender), fwd)
            if self.wants_trace("flood.fanout"):
                self.emit(
                    "flood.fanout", query_id=msg.query_id, span=msg.span_id,
                    fanout=fanout,
                )

    def _answer(self, origin: int, qid: int, item, hops: int = 0) -> None:
        self.answers_served += 1
        self.send(
            origin,
            DataFound(
                query_id=qid,
                key=item.key,
                value=item.value,
                holder=self.address,
                holder_pid=self.p_id,
                holder_pred_pid=self._segment_lower_bound(),
                hops=hops,
            ),
        )

    def _segment_lower_bound(self) -> int:
        return self.predecessor_pid if self.role == "t" else self.segment_lo

    def on_DataFound(self, msg: DataFound) -> Optional[_PendingLookup]:
        """Answer arrived at the origin (the first one wins).

        Returns the lookup it ended, None for a late duplicate: the
        bypass and cache mixins learn from first answers only.
        """
        pending = self._finish_lookup(
            msg.query_id, True, msg.value, msg.holder, msg.hops
        )
        if pending is not None and self.wants_trace("lookup.done"):
            rec = self.queries.get(msg.query_id)
            self.emit(
                "lookup.done",
                query_id=msg.query_id,
                span=pending.span,
                hops=msg.hops,
                contacts=rec.contacts if rec is not None else 0,
                latency=rec.latency if rec is not None else 0.0,
            )
        return pending

    # ==================================================================
    # Store handlers
    # ==================================================================
    def on_StoreRequest(self, msg: StoreRequest) -> None:
        if self.role != "t":
            self.send(self.t_peer, msg)
            return
        # self.owns(msg.d_id), inlined: one test per ring hop.
        pred = self.predecessor_pid
        mask = self.idspace._mask
        span = (self.p_id - pred) & mask
        if not (span == 0 or 0 < ((msg.d_id - pred) & mask) <= span):
            # ring_next_hop, inlined for the plain successor walk; and
            # transport.send called directly, not through ``self.send``.
            nxt = self.ring_next_hop(msg.d_id) if self.fingers else self.successor
            self.transport.send(self, nxt, msg)
            return
        self._store_at_owner(msg.key, msg.value, msg.d_id, msg.origin, msg.write_id)

    def _store_at_owner(
        self, key: str, value: Any, d_id: int, origin: int, write_id: int
    ) -> None:
        """The owning t-peer places a remote store (Section 3.4's two
        placement schemes)."""
        if self.config.placement == PLACEMENT_SPREAD:
            self._spread(key, value, d_id, origin, write_id)
        else:
            self._insert_as_holder(key, value, d_id, origin, write_id=write_id)

    def _spread(
        self, key: str, value: Any, d_id: int, origin: int, write_id: int = -1
    ) -> None:
        """Placement scheme 2: "picks a random s-peer from its directly
        connected s-peers and itself".

        Spreading continues strictly *downward* (children only) so the
        walk terminates; the paper's phrasing leaves the direction open
        and downward preserves the intended load-balancing effect.
        """
        choices = [self.address] + sorted(self.children)
        pick = choices[int(self.rng.integers(0, len(choices)))]
        if pick == self.address:
            self._insert_as_holder(key, value, d_id, origin, write_id=write_id)
        else:
            self.send(
                pick,
                SpreadStore(
                    key=key, value=value, d_id=d_id,
                    origin=origin, write_id=write_id,
                ),
            )

    def on_SpreadStore(self, msg: SpreadStore) -> None:
        self._spread(msg.key, msg.value, msg.d_id, msg.origin, msg.write_id)

    def _insert_as_holder(
        self, key: str, value: Any, d_id: int, origin: int, write_id: int = -1
    ) -> None:
        """Final insertion at this peer.

        ``write_id >= 0`` means the origin's daemon is holding a client
        put ack until the copy exists somewhere (the k == 1 analogue of
        the quorum verdict): report back the moment the insert lands.
        """
        self._hold(key, value, d_id)
        if write_id >= 0:
            if origin in (-1, self.address):
                self._write_verdict(write_id, True)
            else:
                self.send(
                    origin,
                    ReplicaAck(
                        write_id=write_id, replica=self.address,
                        committed=True, final=True,
                    ),
                )

    def _hold(self, key: str, value: Any, d_id: int) -> None:
        """This peer becomes the holder of an item."""
        self.database.insert(key, value, d_id)
        self.emit("data.stored", key=key, d_id=d_id)
