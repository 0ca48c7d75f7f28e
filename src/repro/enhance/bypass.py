"""Bypass links between s-networks (Section 5.4).

Bypass links are soft shortcuts that divert data operations away from
the t-network.  The paper gives three addition rules, all implemented:

1. a bypass link may only be added while the peer's degree is below the
   threshold δ (tree links and bypass links share the budget here);
2. after peer *a* inserts a data item at peer *b* in a different
   s-network, link (a, b) is added -- implemented via
   :class:`~repro.overlay.messages.StoreAck`;
3. after peer *a* finds a data item at peer *b* in a different
   s-network, link (a, b) is added -- via the segment identity carried
   in :class:`~repro.overlay.messages.DataFound`.

Each link carries the *segment* of the remote s-network, so future
lookups whose ``d_id`` falls in that segment skip the ring entirely and
flood the remote network directly.  Links expire after
``bypass_lifetime`` of disuse; "transmitting a packet through the
bypass link will refresh the attached timer".

Implementation note: links are directional (the holder side adds its
own link when its reply/ack arrives back, symmetric by construction of
rules 2-3), and a lookup that travelled a *stale* bypass gets one free
retry through the authoritative t-network before it may be declared
failed (see :meth:`~repro.core.dataplane.DataPlaneMixin._lookup_expired`).
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Dict, Optional

from ..overlay.messages import DataFound, FloodQuery, StoreAck

__all__ = ["BypassLink", "BypassMixin"]


class BypassLink:
    """One shortcut into a remote s-network's segment ``(lo, hi]``."""

    __slots__ = ("lo", "hi", "expires_at")

    def __init__(self, lo: int, hi: int, expires_at: float) -> None:
        self.lo = lo
        self.hi = hi
        self.expires_at = expires_at


class BypassMixin:
    """Bypass-link table management and lookup routing."""

    @cached_property
    def bypass(self) -> Dict[int, BypassLink]:
        """Live shortcuts: remote peer -> its segment."""
        return {}

    def _lookup_remote(self, qid: int, pending: Any, retry: bool) -> None:
        """Try a bypass shortcut first (Section 5.4), else ride the
        t-network; a retry always takes the t-network."""
        target = None if retry else self.bypass_target_for(pending.d_id)
        if target is None:
            super()._lookup_remote(qid, pending, retry)
            return
        pending.via_bypass = True
        self.queries.note_bypass(qid)
        self.send(
            target,
            FloodQuery(
                d_id=pending.d_id, key=pending.key, origin=self.address,
                query_id=qid, ttl=pending.ttl, attempt=pending.attempts,
                span_id=pending.span,
            ),
        )

    def _insert_as_holder(
        self, key: str, value: Any, d_id: int, origin: int, write_id: int = -1
    ) -> None:
        super()._insert_as_holder(key, value, d_id, origin, write_id)
        if origin not in (-1, self.address):
            # Rule 2's other half: tell the inserter who holds its item.
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
        if msg.holder_pid != self.p_id:
            self.add_bypass(msg.holder, msg.holder_pred_pid, msg.holder_pid)

    def on_DataFound(self, msg: DataFound) -> Any:
        """Bypass rule 3: link up with the holder of a found item."""
        pending = super().on_DataFound(msg)
        if pending is not None and msg.holder_pid != self.p_id:
            self.add_bypass(msg.holder, msg.holder_pred_pid, msg.holder_pid)
        return pending

    def _neighbor_gone(self, addr: int, crashed: bool = False) -> None:
        if crashed:
            self.bypass.pop(addr, None)
        super()._neighbor_gone(addr, crashed)

    def add_bypass(self, addr: int, lo: int, hi: int) -> None:
        """Rules 1-3: add/refresh a shortcut to ``addr`` (segment (lo, hi])."""
        if addr in (-1, self.address) or hi == self.p_id:
            return  # self or same s-network: the tree already covers it
        self._prune_bypass()
        expires = self.engine.now + self.config.bypass_lifetime
        link = self.bypass.get(addr)
        if link is not None:
            link.lo, link.hi, link.expires_at = lo, hi, expires
            return
        # Rule 1: respect the degree threshold.
        if self.tree_degree() + len(self.bypass) >= self.config.delta:
            return
        self.bypass[addr] = BypassLink(lo, hi, expires)
        self.emit("bypass.add", target=addr)

    def bypass_target_for(self, d_id: int) -> Optional[int]:
        """A live bypass neighbor whose segment covers ``d_id``, if any."""
        if not self.bypass:
            return None
        self._prune_bypass()
        for addr, link in self.bypass.items():
            if self.idspace.in_interval(d_id, link.lo, link.hi, closed_right=True):
                # Using the link refreshes its timer.
                link.expires_at = self.engine.now + self.config.bypass_lifetime
                return addr
        return None

    def _prune_bypass(self) -> None:
        now = self.engine.now
        stale = [a for a, l in self.bypass.items() if l.expires_at <= now]
        for a in stale:
            del self.bypass[a]
