"""Alternative s-network search primitives.

Two extensions the paper names but does not evaluate:

* **random walks** (Section 1: unstructured networks "use flooding or
  random walks to look up data items") -- ``search_mode="walk"`` sends
  ``walkers`` independent walkers with a per-walker hop budget instead
  of a TTL flood.  Walks touch far fewer peers per query but trade
  success probability for it; the ablation benchmark quantifies the
  trade.
* **partial/keyword search** (Section 5.3) -- ``search(prefix)`` floods
  a prefix query through the peer's own s-network; *every* matching
  peer answers with *all* its matches, and the origin aggregates until
  its timer expires.  Unlike exact lookups there is no single holder,
  which is exactly why the paper pairs this with interest-based
  s-networks (the category's data all lives in one network).

:class:`SearchMixin`'s prefix search is part of every peer.
:class:`WalkMixin` (``search_mode="walk"``) replaces the flood as the
data plane's ``_search_segment`` and is composed into a peer class only
when on.  (Section 5.5's BitTorrent-style s-network resolves lookups
from the swarm tracker: :class:`~repro.swarm.protocol.SwarmMixin`.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..overlay.messages import PartialQuery, PartialResult, WalkQuery
from ..sim.timers import Timer

__all__ = ["SearchMixin", "PartialSearch", "WalkMixin"]


@dataclass(slots=True)
class PartialSearch:
    """Origin-side state of one partial (prefix) search."""

    timer: Timer
    prefix: str
    matches: Dict[str, Any] = field(default_factory=dict)
    holders: set = field(default_factory=set)
    done: bool = False


class SearchMixin:
    """Prefix search (Section 5.3)."""

    def search(self, prefix: str, timeout: Optional[float] = None) -> int:
        """Prefix search in this peer's own s-network; returns a query id.

        Results accumulate until the timer fires; read them afterwards
        with :meth:`search_results`.  The registry records the search
        like a lookup: success = at least one match arrived.
        """
        if not prefix:
            raise ValueError("prefix must be non-empty")
        rec = self.queries.start(
            self.address, f"partial:{prefix}", 0, self.engine.now, local=True
        )
        qid = rec.query_id
        timer = Timer(
            self.engine,
            timeout if timeout is not None else self.config.lookup_timeout,
            lambda: self._finish_search(qid),
        )
        state = PartialSearch(timer, prefix)
        self.pending_searches[qid] = state
        timer.start()
        # Check our own database first, then flood the s-network.
        for item in self.database:
            if item.key.startswith(prefix):
                state.matches[item.key] = item.value
                state.holders.add(self.address)
        query = PartialQuery(
            prefix=prefix, origin=self.address, query_id=qid, ttl=self.config.ttl
        )
        self.seen_queries.add((qid, 0))
        self.send_many(self.flood_targets(), query)
        return qid

    def on_PartialQuery(self, msg: PartialQuery) -> None:
        """Flood step: report every local match, keep flooding.

        Unlike exact lookups, a hit does NOT stop the flood -- other
        peers may hold further matches (this is the "partial lookup"
        semantics YAPPERS popularised; the paper contrasts itself for
        exact search but adopts the flood for keyword queries).
        """
        seen_key = (msg.query_id, 0)
        if seen_key in self.seen_queries:
            self.queries.contact(msg.query_id, duplicate=True)
            return
        self.seen_queries.add(seen_key)
        self.queries.contact(msg.query_id)
        if self._liveness:
            self.note_query_activity(msg.sender, msg.query_id)
        matches = tuple(
            (item.key, item.value)
            for item in self.database
            if item.key.startswith(msg.prefix)
        )
        if matches:
            self.answers_served += 1
            self.send(
                msg.origin,
                PartialResult(query_id=msg.query_id, matches=matches, holder=self.address),
            )
        if msg.ttl > 1:
            fwd = PartialQuery(
                prefix=msg.prefix, origin=msg.origin,
                query_id=msg.query_id, ttl=msg.ttl - 1,
            )
            self.send_many(self.flood_targets(exclude=msg.sender), fwd)

    def on_PartialResult(self, msg: PartialResult) -> None:
        state = self.pending_searches.get(msg.query_id)
        if state is None or state.done:
            return
        for key, value in msg.matches:
            state.matches[key] = value
        state.holders.add(msg.holder)

    def _finish_search(self, qid: int) -> None:
        state = self.pending_searches.get(qid)
        if state is None or state.done:
            return
        state.done = True
        state.timer.cancel()
        if state.matches:
            self.queries.succeed(qid, self.engine.now, holder=-1)
        else:
            self.queries.fail(qid, self.engine.now)
        self.emit("search.done", query_id=qid, matches=len(state.matches))

    def search_results(self, qid: int) -> Optional[Dict[str, Any]]:
        """Matches of a finished search (None if unknown/still running)."""
        state = self.pending_searches.get(qid)
        if state is None or not state.done:
            return None
        return dict(state.matches)

    def search_done(self, qid: int) -> bool:
        state = self.pending_searches.get(qid)
        return state is not None and state.done


class WalkMixin:
    """Random-walk lookups: the s-network search of ``search_mode="walk"``."""

    def _search_segment(
        self, qid: int, key: str, d_id: int, origin: int, ttl: int,
        attempt: int, span: int, hops: int = 0,
    ) -> None:
        """Start ``config.walkers`` random walks from this peer.

        A walker that finds the item answers ``origin`` directly (for a
        remote lookup, the peer that issued it, not this t-peer).
        ``span``/``hops`` thread the lookup trace span through: when
        the walk is launched by a remote ring lookup, hops already
        travelled on the ring carry over into the walkers.
        """
        targets = sorted(self.flood_targets())
        if not targets:
            return
        budget = self.config.walk_ttl
        for i in range(self.config.walkers):
            nxt = targets[int(self.rng.integers(0, len(targets)))]
            walker = WalkQuery(
                d_id=d_id, key=key, origin=origin, query_id=qid,
                ttl=budget, span_id=span,
            )
            walker.hop_count = hops
            self.send(nxt, walker)

    def on_WalkQuery(self, msg: WalkQuery) -> None:
        """One walker step: check, then wander on."""
        self.queries.contact(msg.query_id)
        if self._liveness:
            self.note_query_activity(msg.sender, msg.query_id)
        trace = self.trace
        if trace is not None and "lookup.hop" in trace.wanted:
            self.emit(
                "lookup.hop", span=msg.span_id, query_id=msg.query_id,
                hop=msg.hop_count + 1, kind="walk",
            )
        item = self.database.get(msg.key)
        if item is None and self.cache is not None:
            item = self.cache.get(msg.key, self.engine.now)
        if item is not None:
            self._answer(msg.origin, msg.query_id, item, hops=msg.hop_count + 1)
            return
        if msg.ttl <= 1:
            return
        candidates = sorted(self.flood_targets(exclude=msg.sender))
        if not candidates:
            # Dead end (leaf): step back through the sender.
            candidates = [msg.sender] if msg.sender != -1 else []
        if not candidates:
            return
        nxt = candidates[int(self.rng.integers(0, len(candidates)))]
        fwd = WalkQuery(
            d_id=msg.d_id, key=msg.key, origin=msg.origin,
            query_id=msg.query_id, ttl=msg.ttl - 1, span_id=msg.span_id,
        )
        fwd.hop_count = msg.hop_count + 1
        self.send(nxt, fwd)
