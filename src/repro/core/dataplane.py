"""Data insertion and lookup (Section 3.4) plus the BitTorrent-style
s-network variant (Section 5.5).

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
* origin-side lookup timers with optional TTL-growing refloods;
* the tracker-style data plane when ``snetwork_style == "bittorrent"``.

Lookup metrics (latency / failure ratio / connum) are recorded in the
shared :class:`~repro.core.lookup.QueryRegistry`; an origin's optional
``on_verdict`` / ``on_done`` callback is how a caller learns that its
write or lookup finished.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..overlay.messages import (
    BTFetch,
    CachePush,
    ReplicaAck,
    BTLookup,
    BTLookupReply,
    BTRegister,
    DataFound,
    FloodQuery,
    LookupRequest,
    SpreadStore,
    StoreAck,
    StoreRequest,
)
from ..sim.timers import Timer
from .config import PLACEMENT_SPREAD, SEARCH_WALK, SNETWORK_BITTORRENT

__all__ = ["DataPlaneMixin"]

#: TTL added per reflood (Section 3.4: "increase the TTL value ... and
#: reflood").
REFLOOD_TTL_STEP = 2

#: ``on_done(found, value, holder)``: how a lookup reports its end.
OnDone = Callable[[bool, Any, int], Any]


class _PendingLookup:
    """Origin-side state of one in-flight lookup."""

    __slots__ = (
        "timer", "ttl", "attempts", "via_bypass", "bypass_retry_done",
        "d_id", "key", "local", "span", "on_done",
    )

    def __init__(
        self, timer: Timer, ttl: int, d_id: int, key: str, local: bool,
        span: int, on_done: Optional[OnDone],
    ) -> None:
        self.timer = timer
        self.ttl = ttl
        self.attempts = 0
        self.via_bypass = False  # the initial send used a bypass link
        self.bypass_retry_done = False
        self.d_id = d_id
        self.key = key
        self.local = local
        self.span = span  # trace span id carried on every query message
        self.on_done = on_done


class DataPlaneMixin:
    """store/lookup operations and their message handlers."""

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
        if self.config.replication_factor > 1:
            # Durable path (repro.replica): the owning t-peer anchors
            # the primary copy and fans a ReplicaWrite chain down its
            # k-1 ring successors.  Placement spreading is bypassed --
            # one authoritative holder per item is what makes the
            # anti-entropy digest and failover promotion well-defined.
            if self.role == "t" and self.owns(d_id):
                self._replica_ingest(key, value, d_id, self.address, origin_wid=wid)
                return d_id
        elif self.owns_locally(d_id):
            self._insert_as_holder(key, value, d_id, self.address, write_id=wid)
            return d_id
        self.send(
            self.t_peer if self.role == "s" else self.ring_next_hop(d_id),
            StoreRequest(
                key=key, value=value, d_id=d_id, origin=self.address, write_id=wid
            ),
        )
        return d_id

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
        d_id, key, ttl = pending.d_id, pending.key, pending.ttl
        # Own database first -- every peer "checks its own database" --
        # then any surrogate copy in the local cache.
        item = None if retry else self.database.get(key) or self.cache_lookup(key)
        if item is not None:
            self._finish_lookup(qid, True, item.value, self.address)
            if self.wants_trace("lookup.done"):
                self.emit(
                    "lookup.done", query_id=qid, span=pending.span,
                    hops=0, contacts=0, latency=0.0,
                )
            return
        if pending.local:
            if self.config.snetwork_style == SNETWORK_BITTORRENT:
                if self.role == "t":
                    self._bt_resolve(qid, key, origin=self.address)
                else:
                    self.send(
                        self.t_peer,
                        BTLookup(d_id=d_id, key=key, origin=self.address, query_id=qid),
                    )
                return
            if self.config.search_mode == SEARCH_WALK:
                self.launch_walkers(qid, key, d_id, self.address, span_id=pending.span)
                return
            flood = FloodQuery(
                d_id=d_id, key=key, origin=self.address, query_id=qid,
                ttl=ttl, attempt=pending.attempts, span_id=pending.span,
            )
            self.seen_queries.add((qid, pending.attempts))
            fanout = self.send_many(self.flood_targets(), flood)
            if self.wants_trace("flood.fanout"):
                self.emit("flood.fanout", query_id=qid, span=pending.span, fanout=fanout)
            return
        # Remote: try a bypass shortcut first (Section 5.4), else ride
        # the t-network.
        if self.config.bypass_links and not retry:
            target = self.bypass_target_for(d_id)
            if target is not None:
                pending.via_bypass = True
                self.queries.note_bypass(qid)
                self.send(
                    target,
                    FloodQuery(
                        d_id=d_id, key=key, origin=self.address, query_id=qid,
                        ttl=ttl, attempt=pending.attempts, span_id=pending.span,
                    ),
                )
                return
        request = LookupRequest(
            d_id=d_id, key=key, origin=self.address, query_id=qid,
            ttl=ttl, attempt=pending.attempts, span_id=pending.span,
        )
        if self.role == "s":
            self.send(self.t_peer, request)
        else:
            self.send(self.ring_next_hop(d_id), request)

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
        if self.config.heartbeats_enabled:
            self.note_query_activity(msg.sender, msg.query_id)
        if self.cache is not None:
            cached = self.cache.get(msg.key, self.engine.now)
            if cached is not None:
                # Surrogate copy: answer without riding the rest of the
                # ring (the caching scheme's load diversion).
                self.cache_hit_answer(
                    msg.origin, msg.query_id, cached, hops=msg.hop_count + 1
                )
                return
        # self.owns(msg.d_id), inlined: one test per ring hop.
        pred = self.predecessor_pid
        mask = self.idspace._mask
        span = (self.p_id - pred) & mask
        if not (span == 0 or 0 < ((msg.d_id - pred) & mask) <= span):
            msg.hop_count += 1
            # ring_next_hop, inlined for the plain successor walk; and
            # transport.send called directly (Python to Python), not
            # through the pre-bound ``self.send`` partial.
            nxt = self.ring_next_hop(msg.d_id) if self.fingers else self.successor
            self.transport.send(self, nxt, msg)
            return
        item = self.database.get(msg.key)
        if item is None and self.config.replication_factor > 1:
            # Failover window: ownership reached us before the repair
            # pull finished -- serve reads from the replica copy.
            item = self.replicas.get(msg.key)
        if item is not None:
            self._answer(msg.origin, msg.query_id, item, hops=msg.hop_count + 1)
            return
        if self.config.snetwork_style == SNETWORK_BITTORRENT:
            self._bt_resolve(
                msg.query_id, msg.key, origin=msg.origin, hops=msg.hop_count + 1
            )
            return
        if self.config.search_mode == SEARCH_WALK:
            self.launch_walkers(
                msg.query_id, msg.key, msg.d_id, msg.origin,
                span_id=msg.span_id, hops=msg.hop_count + 1,
            )
            return
        flood = FloodQuery(
            d_id=msg.d_id, key=msg.key, origin=msg.origin,
            query_id=msg.query_id, ttl=msg.ttl, attempt=msg.attempt,
            span_id=msg.span_id,
        )
        flood.hop_count = msg.hop_count + 1
        self.seen_queries.add((msg.query_id, msg.attempt))
        fanout = self.send_many(self.flood_targets(), flood)
        if self.wants_trace("flood.fanout"):
            self.emit(
                "flood.fanout", query_id=msg.query_id, span=msg.span_id,
                fanout=fanout,
            )

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
        if self.config.heartbeats_enabled:
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

    def on_DataFound(self, msg: DataFound) -> None:
        """Answer arrived at the origin (the first one wins)."""
        pending = self._finish_lookup(
            msg.query_id, True, msg.value, msg.holder, msg.hops
        )
        if pending is None:
            return
        if self.wants_trace("lookup.done"):
            rec = self.queries.get(msg.query_id)
            self.emit(
                "lookup.done",
                query_id=msg.query_id,
                span=pending.span,
                hops=msg.hops,
                contacts=rec.contacts if rec is not None else 0,
                latency=rec.latency if rec is not None else 0.0,
            )
        if self.config.bypass_links and msg.holder_pid != self.p_id:
            self.add_bypass(msg.holder, msg.holder_pred_pid, msg.holder_pid)
        if self.config.cache_enabled and msg.holder != self.address:
            d_id = self.idspace.hash_key(msg.key)
            self.cache_store(msg.key, msg.value, d_id)
            if self.role == "s" and not self.owns_locally(d_id):
                # Seed the s-network's gateway surrogate: future
                # remote lookups from this network stop at the t-peer.
                self.send(
                    self.t_peer,
                    CachePush(key=msg.key, value=msg.value, d_id=d_id),
                )

    def on_CachePush(self, msg: CachePush) -> None:
        """Adopt a surrogate copy pushed by an s-network member."""
        if self.config.cache_enabled:
            self.cache_store(msg.key, msg.value, msg.d_id)

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
            # transport.send called directly (Python to Python), not
            # through the pre-bound ``self.send`` partial.
            nxt = self.ring_next_hop(msg.d_id) if self.fingers else self.successor
            self.transport.send(self, nxt, msg)
            return
        if self.config.replication_factor > 1:
            # Durable path (repro.replica): primary copy here, then the
            # k-successor chain; tracked when the origin asked for a
            # quorum verdict (write_id >= 0).
            self._replica_ingest(
                msg.key, msg.value, msg.d_id, msg.origin, origin_wid=msg.write_id
            )
        elif self.config.placement == PLACEMENT_SPREAD:
            self._spread(msg.key, msg.value, msg.d_id, msg.origin, msg.write_id)
        else:
            self._insert_as_holder(
                msg.key, msg.value, msg.d_id, msg.origin, write_id=msg.write_id
            )

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
        """Final insertion at this peer, plus variant bookkeeping.

        ``write_id >= 0`` means the origin's daemon is holding a client
        put ack until the copy exists somewhere (the k == 1 analogue of
        the quorum verdict): report back the moment the insert lands.
        """
        self.database.insert(key, value, d_id)
        self.emit("data.stored", key=key, d_id=d_id)
        if self.config.snetwork_style == SNETWORK_BITTORRENT:
            if self.role == "t":
                self.bt_index[key] = self.address
            else:
                self.send(self.t_peer, BTRegister(key=key, d_id=d_id, holder=self.address))
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
        if self.config.bypass_links and origin not in (-1, self.address):
            self.send(
                origin,
                StoreAck(
                    key=key,
                    holder=self.address,
                    holder_pid=self.p_id,
                    holder_pred_pid=self._segment_lower_bound(),
                ),
            )

    def on_StoreAck(self, msg: StoreAck) -> None:
        """Bypass rule 2: link up with the holder of our remote insert."""
        if self.config.bypass_links and msg.holder_pid != self.p_id:
            self.add_bypass(msg.holder, msg.holder_pred_pid, msg.holder_pid)

    # ==================================================================
    # BitTorrent-style data plane (Section 5.5)
    # ==================================================================
    def on_BTRegister(self, msg: BTRegister) -> None:
        if self.role == "t":
            self.bt_index[msg.key] = msg.holder

    def _bt_resolve(self, qid: int, key: str, origin: int, hops: int = 0) -> None:
        """Tracker t-peer answers from its index (no flooding)."""
        item = self.database.get(key)
        if item is not None:
            if origin == self.address:
                self.answers_served += 1
                self._finish_lookup(qid, True, item.value, self.address)
            else:
                self._answer(origin, qid, item, hops=hops)
            return
        holder = self.bt_index.get(key, -1)
        if origin == self.address:
            if holder == -1:
                self._bt_negative(qid)
            else:
                self.send(holder, BTFetch(key=key, origin=self.address, query_id=qid))
        else:
            self.send(origin, BTLookupReply(query_id=qid, key=key, holder=holder))

    def on_BTLookup(self, msg: BTLookup) -> None:
        self.queries.contact(msg.query_id)
        if self.config.heartbeats_enabled:
            self.note_query_activity(msg.sender, msg.query_id)
        trace = self.trace
        if trace is not None and "lookup.hop" in trace.wanted:
            self.emit(
                "lookup.hop", span=-1, query_id=msg.query_id,
                hop=msg.hop_count + 1, kind="bt",
            )
        if self.role != "t":
            msg.hop_count += 1
            self.send(self.t_peer, msg)
            return
        self._bt_resolve(msg.query_id, msg.key, msg.origin, hops=msg.hop_count + 1)

    def on_BTLookupReply(self, msg: BTLookupReply) -> None:
        """Origin: fetch from the holder the tracker named."""
        if msg.holder == -1:
            self._bt_negative(msg.query_id)
            return
        if msg.query_id in self.pending_lookups:
            self.send(msg.holder, BTFetch(key=msg.key, origin=self.address, query_id=msg.query_id))

    def on_BTFetch(self, msg: BTFetch) -> None:
        self.queries.contact(msg.query_id)
        trace = self.trace
        if trace is not None and "lookup.hop" in trace.wanted:
            self.emit(
                "lookup.hop", span=-1, query_id=msg.query_id,
                hop=msg.hop_count + 1, kind="bt",
            )
        item = self.database.get(msg.key)
        if item is not None:
            self._answer(msg.origin, msg.query_id, item, hops=msg.hop_count + 1)
        # A lost item (crash) yields silence; the origin's timer fails it.

    def _bt_negative(self, qid: int) -> None:
        """Tracker had no holder: fail fast instead of waiting out the timer."""
        self._finish_lookup(qid, False)
