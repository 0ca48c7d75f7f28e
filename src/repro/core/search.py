"""Random-walk lookups: the alternative s-network search.

Section 1 names the other unstructured search primitive: unstructured
networks "use flooding or random walks to look up data items".
``search_mode="walk"`` sends ``walkers`` independent walkers with a
per-walker hop budget instead of a TTL flood.  Walks touch far fewer
peers per query but trade success probability for it; the ablation
benchmark quantifies the trade.

:class:`WalkMixin` replaces the flood as the data plane's
``_search_segment`` and is composed into a peer class only when on.
(Section 5.5's BitTorrent-style s-network resolves lookups from the
swarm tracker: :class:`~repro.swarm.protocol.SwarmMixin`.)
"""

from __future__ import annotations

from ..overlay.messages import WalkQuery

__all__ = ["WalkMixin"]


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
