"""SwarmMixin: the peer-side tracker protocol (sim and live).

Composed into the peer class under ``snetwork_style="bittorrent"`` (see
:func:`~repro.core.hybridpeer.peer_class`): Section 5.5's "the t-peer
works as the tracker", for stored items and bulk content alike.

- **tracker** (segment-owning t-peer): keeps per-holder piece bitmaps
  fresh from :class:`~repro.overlay.messages.HaveAnnounce` updates and
  answers :class:`~repro.overlay.messages.AnnounceRequest` with them.
- **lookups**: a stored item is a one-piece content its s-peer holder
  announces.  The tracker forwards a lookup to one known holder as a
  one-hop ``FloodQuery`` instead of flooding, or fails it at once.
- **downloader/seeder** (any peer): announces, selects pieces
  rarest-first across the advertised holders with a per-holder inflight
  cap, verifies every received piece against the manifest hash, streams
  ``HaveAnnounce`` as pieces land (so later joiners are steered to it),
  and serves :class:`~repro.overlay.messages.PieceRequest` for anything
  it holds.

Everything is deterministic: piece/holder selection is a pure function
(:func:`~repro.swarm.pieces.rarest_first` salted by the peer address),
and the periodic re-announce tick rides the shared engine timers.  A
Gnutella-style s-network (the default) has no handler, state or message
of this mixin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..overlay.messages import (
    AnnounceRequest,
    AnnounceResponse,
    BTLookupReply,
    FloodQuery,
    HaveAnnounce,
    LookupRequest,
    PieceRequest,
    PieceResponse,
    SLeaveNotify,
)
from ..sim.timers import PeriodicTimer
from . import manifest as mf
from .pieces import bitmap_get, bitmap_new, bitmap_set, rarest_first
from .tracker import SwarmTracker

__all__ = ["SwarmMixin"]

# Upper bound on PieceRequests issued in one pump, whatever the holder
# set allows -- keeps a single event-loop turn bounded.
_PUMP_BUDGET = 32


@dataclass(slots=True)
class _SwarmDownload:
    """Book-keeping for one in-progress content fetch."""

    content: str
    d_id: int
    manifest: Dict[str, Any]
    started_at: float
    n_pieces: int = field(init=False)
    have: Set[int] = field(default_factory=set)
    # piece -> (holder, sent_at)
    requested: Dict[int, Tuple[int, float]] = field(default_factory=dict)
    holder_maps: Dict[int, bytearray] = field(default_factory=dict)  # holder -> bitmap
    inflight: Dict[int, int] = field(default_factory=dict)  # holder -> requests out
    callbacks: List[Callable[[Optional[bytes], Dict[str, Any]], None]] = field(
        default_factory=list
    )
    timer: Optional[PeriodicTimer] = None
    integrity_failures: int = 0
    done: bool = False

    def __post_init__(self) -> None:
        self.n_pieces = len(self.manifest["pieces"])


class SwarmMixin:
    """Tracker-mode chunked bulk transfer (paper Section 5.5)."""

    # ------------------------------------------------------------------
    # State (created on first use)
    # ------------------------------------------------------------------
    swarm_integrity_failures = 0

    @cached_property
    def swarm_pieces(self) -> Dict[str, Dict[int, bytes]]:
        """content hash -> piece index -> bytes (pieces this peer serves)."""
        return {}

    @cached_property
    def swarm_meta(self) -> Dict[str, Dict[str, Any]]:
        """content hash -> manifest (known locally; needed to verify/serve)."""
        return {}

    @cached_property
    def swarm_tracker(self) -> SwarmTracker:
        """Tracker side (only populated on the segment-owning t-peer)."""
        return SwarmTracker()

    @cached_property
    def _swarm_downloads(self) -> Dict[str, _SwarmDownload]:
        return {}

    def _stopping(self) -> None:
        """Cancel download timers and drop swarm state (depart/crash)."""
        downloads = self._touched("_swarm_downloads")
        if downloads:
            for dl in downloads.values():
                if dl.timer is not None:
                    dl.timer.stop()
            downloads.clear()
        super()._stopping()

    # ------------------------------------------------------------------
    # Publishing / seeding
    # ------------------------------------------------------------------
    def swarm_publish(self, key: str, data: bytes,
                      piece_size: Optional[int] = None) -> Dict[str, Any]:
        """Chunk ``data``, store its manifest under ``key``, seed pieces.

        The manifest rides the ordinary put path (placement, replication
        and caching all apply); the pieces stay local and are announced
        to the tracker so downloaders find this peer as the first seed.
        """
        size = piece_size or self.config.swarm_piece_size
        manifest = mf.build_manifest(data, size)
        pieces = mf.split_pieces(data, size)
        self.store(key, manifest)
        self.swarm_seed(manifest, dict(enumerate(pieces)))
        return manifest

    def swarm_seed(self, manifest: Dict[str, Any],
                   pieces: Dict[int, bytes]) -> None:
        """Register locally held pieces and announce them to the tracker."""
        content = manifest["content"]
        self.swarm_meta[content] = manifest
        self.swarm_pieces.setdefault(content, {}).update(pieces)
        have = bitmap_new(len(manifest["pieces"]))
        for index in self.swarm_pieces[content]:
            bitmap_set(have, index)
        self._swarm_announce(content, len(manifest["pieces"]), bytes(have))

    def _swarm_announce(self, content: str, n_pieces: int, have: bytes) -> None:
        msg = AnnounceRequest(
            content=content,
            d_id=self.idspace.hash_key(content),
            origin=self.address,
            n_pieces=n_pieces,
            have=have,
        )
        self._swarm_to_tracker(msg)

    # ------------------------------------------------------------------
    # Stored items: one-piece contents, the tracker resolves lookups
    # ------------------------------------------------------------------
    def _hold(self, key: str, value: Any, d_id: int) -> None:
        super()._hold(key, value, d_id)
        if self.role != "t":  # a t-peer reads its own items first
            self._swarm_register(key, d_id)

    def _swarm_register(self, key: str, d_id: int) -> None:
        self._swarm_to_tracker(HaveAnnounce(
            content=key, d_id=d_id, holder=self.address, piece=0, n_pieces=1
        ))

    def _swarm_reregister(self) -> None:
        """A new t-peer knows none of this s-peer's items: announce them."""
        if self.role == "s":
            for item in self.database:
                self._swarm_register(item.key, item.d_id)

    def on_TPeerUpdate(self, msg) -> None:
        super().on_TPeerUpdate(msg)
        self._swarm_reregister()

    def on_LoadTransfer(self, msg) -> None:
        """A leaver's dumped items: this s-peer holds them now."""
        super().on_LoadTransfer(msg)
        if self.role != "t" and not self.departing:
            for key, _value, d_id in msg.items:
                self._swarm_register(key, d_id)

    def leave_s(self) -> None:
        # The tracker (the t-peer) hears of the leave even when it is no
        # tree neighbour and forgets this holder; the load dump's
        # recipient announces the items in its place.
        if self.t_peer != self.cp:
            self.send(self.t_peer, SLeaveNotify(leaver=self.address))
        super().leave_s()

    def on_SLeaveNotify(self, msg: SLeaveNotify) -> None:
        super().on_SLeaveNotify(msg)
        tracker = self._touched("swarm_tracker")
        if tracker is not None:
            tracker.drop_holder(msg.leaver)

    def on_RejoinRedirect(self, msg) -> None:
        super().on_RejoinRedirect(msg)
        self._swarm_reregister()

    def _search_segment(
        self, qid: int, key: str, d_id: int, origin: int, ttl: int,
        attempt: int, span: int, hops: int = 0,
    ) -> None:
        """Ask the tracker, not the tree: an s-peer passes the lookup to
        its t-peer, which sends it on to the first holder it knows."""
        if self.role != "t":
            self.send(self.t_peer, LookupRequest(
                d_id=d_id, key=key, origin=origin, query_id=qid,
                ttl=ttl, attempt=attempt, span_id=span,
            ))
        elif holders := self.swarm_tracker.holders_for(key, limit=1):
            query = FloodQuery(
                d_id=d_id, key=key, origin=origin, query_id=qid,
                ttl=1, attempt=attempt, span_id=span,
            )
            query.hop_count = hops
            self.send(holders[0][0], query)
        elif origin == self.address:
            self._finish_lookup(qid, False)
        else:
            self.send(origin, BTLookupReply(query_id=qid))

    def on_BTLookupReply(self, msg: BTLookupReply) -> None:
        """No holder known: fail fast instead of waiting out the timer."""
        self._finish_lookup(msg.query_id, False)

    # ------------------------------------------------------------------
    # Fetching
    # ------------------------------------------------------------------
    def swarm_fetch(
        self,
        manifest: Dict[str, Any],
        on_done: Callable[[Optional[bytes], Dict[str, Any]], None],
    ) -> None:
        """Fetch the content a manifest describes; swarm from holders.

        ``on_done(data, info)`` fires once with the verified bytes (or
        ``None`` after an unrecoverable assembly failure); ``info``
        carries piece/latency/integrity counters.  Multiple concurrent
        fetches of the same content share one download.
        """
        if not mf.is_manifest(manifest):
            raise ValueError("swarm_fetch needs a manifest value")
        content = manifest["content"]
        local = self.swarm_pieces.get(content, {})
        if len(local) == len(manifest["pieces"]):
            # Already a seed: assemble straight from the local store.
            data = mf.assemble(manifest, local)
            on_done(data, self._swarm_info(content, 0.0, 0))
            return
        dl = self._swarm_downloads.get(content)
        if dl is None:
            dl = _SwarmDownload(
                content, self.idspace.hash_key(content), manifest, self.engine.now
            )
            dl.have = set(local)
            self._swarm_downloads[content] = dl
            self.swarm_meta[content] = manifest
            dl.timer = PeriodicTimer(
                self.engine,
                self.config.swarm_request_timeout,
                partial(self._swarm_tick, content),
            )
            dl.timer.start()
            self._swarm_announce_download(dl)
        dl.callbacks.append(on_done)

    def _swarm_announce_download(self, dl: _SwarmDownload) -> None:
        have = bitmap_new(dl.n_pieces)
        for index in dl.have:
            bitmap_set(have, index)
        self._swarm_announce(dl.content, dl.n_pieces, bytes(have))

    def _swarm_tick(self, content: str) -> None:
        """Periodic downloader tick: expire stale requests, re-announce."""
        dl = self._swarm_downloads.get(content)
        if dl is None or dl.done:
            return
        now = self.engine.now
        timeout = self.config.swarm_request_timeout
        for index, (holder, sent_at) in list(dl.requested.items()):
            if now - sent_at >= timeout:
                del dl.requested[index]
                dl.inflight[holder] = max(0, dl.inflight.get(holder, 0) - 1)
                # A holder that times out may be gone; drop its bitmap so
                # the next pump avoids it until it re-appears in an
                # AnnounceResponse.
                dl.holder_maps.pop(holder, None)
        # Refresh the holder set: peers that finished since the last
        # announce become sources (this is where the swarm effect kicks
        # in for late joiners).
        self._swarm_announce_download(dl)
        self._swarm_pump(dl)

    def _swarm_pump(self, dl: _SwarmDownload) -> None:
        """Issue PieceRequests, rarest-first, respecting inflight caps."""
        if dl.done:
            return
        plan = rarest_first(
            dl.n_pieces,
            dl.have,
            set(dl.requested),
            dl.holder_maps,
            dl.inflight,
            self.config.swarm_inflight,
            _PUMP_BUDGET,
            salt=self.address,
        )
        now = self.engine.now
        for index, holder in plan:
            dl.requested[index] = (holder, now)
            dl.inflight[holder] = dl.inflight.get(holder, 0) + 1
            self.send(holder, PieceRequest(
                content=dl.content, index=index, origin=self.address
            ))

    def _swarm_finish(self, dl: _SwarmDownload) -> None:
        dl.done = True
        if dl.timer is not None:
            dl.timer.stop()
        self._swarm_downloads.pop(dl.content, None)
        pieces = self.swarm_pieces.get(dl.content, {})
        try:
            data: Optional[bytes] = mf.assemble(dl.manifest, pieces)
        except ValueError:
            dl.integrity_failures += 1
            self.swarm_integrity_failures += 1
            data = None
        duration = self.engine.now - dl.started_at
        info = self._swarm_info(dl.content, duration, dl.integrity_failures)
        self.emit(
            "swarm.complete",
            content=dl.content,
            pieces=dl.n_pieces,
            duration=duration,
            integrity_failures=dl.integrity_failures,
            ok=data is not None,
        )
        for cb in dl.callbacks:
            cb(data, info)

    def _swarm_info(self, content: str, duration: float,
                    integrity_failures: int) -> Dict[str, Any]:
        return {
            "content": content,
            "pieces": len(self.swarm_pieces.get(content, {})),
            "duration_ms": duration,
            "integrity_failures": integrity_failures,
        }

    # ------------------------------------------------------------------
    # Tracker routing
    # ------------------------------------------------------------------
    def _swarm_to_tracker(self, msg) -> None:
        """Deliver a tracker-bound message (AnnounceRequest/HaveAnnounce).

        Same routing rule as the data plane: s-peers hand it to their
        t-peer; t-peers forward along the ring until the segment owner
        of ``d_id`` handles it.  The owner handles its own messages
        locally instead of dialling itself.
        """
        if not self._swarm_forward(msg):
            msg.sender = self.address
            self.receive(msg)

    def _swarm_forward(self, msg) -> bool:
        """Pass a tracker-bound message on unless this peer owns its d_id."""
        if self.role != "t":
            self.send(self.t_peer, msg)
        elif not self.owns(msg.d_id):
            self.send(self.ring_next_hop(msg.d_id), msg)
        else:
            return False
        return True

    def on_AnnounceRequest(self, msg: AnnounceRequest) -> None:
        if self._swarm_forward(msg):
            return
        self.swarm_tracker.announce(msg.content, msg.origin, msg.n_pieces, msg.have)
        if self.wants_trace("swarm.holders"):
            self.emit(
                "swarm.holders",
                content=msg.content,
                holders=self.swarm_tracker.holder_count(msg.content),
            )
        holders = self.swarm_tracker.holders_for(msg.content, exclude=msg.origin)
        response = AnnounceResponse(
            content=msg.content,
            n_pieces=self.swarm_tracker.n_pieces(msg.content),
            holders=holders,
        )
        if msg.origin == self.address:
            # Local announce from the tracker itself (it is seeding or
            # fetching content it also tracks): short-circuit the reply.
            response.sender = self.address
            self.receive(response)
        else:
            self.send(msg.origin, response)

    def on_AnnounceResponse(self, msg: AnnounceResponse) -> None:
        dl = self._swarm_downloads.get(msg.content)
        if dl is None or dl.done:
            return
        for holder, bitmap in msg.holders:
            if holder == self.address:
                continue
            dl.holder_maps[holder] = bytearray(bitmap)
        self._swarm_pump(dl)

    def on_HaveAnnounce(self, msg: HaveAnnounce) -> None:
        if self._swarm_forward(msg):
            return
        self.swarm_tracker.have(msg.content, msg.holder, msg.piece, msg.n_pieces)
        if self.wants_trace("swarm.holders"):
            self.emit(
                "swarm.holders",
                content=msg.content,
                holders=self.swarm_tracker.holder_count(msg.content),
            )

    # ------------------------------------------------------------------
    # Piece exchange
    # ------------------------------------------------------------------
    def on_PieceRequest(self, msg: PieceRequest) -> None:
        pieces = self.swarm_pieces.get(msg.content, {})
        data = pieces.get(msg.index, b"")
        meta = self.swarm_meta.get(msg.content)
        total = len(meta["pieces"]) if meta is not None else 0
        if data and self.wants_trace("swarm.piece"):
            self.emit("swarm.piece", dir="tx", content=msg.content, index=msg.index)
        self.send(msg.origin, PieceResponse(
            content=msg.content, index=msg.index, data=data, total=total
        ))

    def on_PieceResponse(self, msg: PieceResponse) -> None:
        dl = self._swarm_downloads.get(msg.content)
        if dl is None or dl.done:
            return
        entry = dl.requested.pop(msg.index, None)
        if entry is not None:
            holder, sent_at = entry
            dl.inflight[holder] = max(0, dl.inflight.get(holder, 0) - 1)
        else:
            holder, sent_at = msg.sender, None
        if not msg.data:
            # Holder no longer has the piece: clear its bit locally so
            # the selector stops asking it for this index.
            bm = dl.holder_maps.get(holder)
            if bm is not None and bitmap_get(bm, msg.index):
                bm[msg.index >> 3] &= ~(1 << (msg.index & 7)) & 0xFF
            self._swarm_pump(dl)
            return
        if msg.index in dl.have:
            self._swarm_pump(dl)
            return
        if not mf.verify_piece(dl.manifest, msg.index, msg.data):
            dl.integrity_failures += 1
            self.swarm_integrity_failures += 1
            self.emit(
                "swarm.integrity_failure",
                content=msg.content, index=msg.index, holder=holder,
            )
            self._swarm_pump(dl)
            return
        dl.have.add(msg.index)
        self.swarm_pieces.setdefault(msg.content, {})[msg.index] = msg.data
        if self.wants_trace("swarm.piece"):
            latency = self.engine.now - sent_at if sent_at is not None else None
            self.emit(
                "swarm.piece",
                dir="rx", content=msg.content, index=msg.index, latency=latency,
            )
        # Tell the tracker immediately: this peer is now a source for
        # the piece, which is what spreads a flash crowd's load.
        self._swarm_to_tracker(HaveAnnounce(
            content=msg.content,
            d_id=dl.d_id,
            holder=self.address,
            piece=msg.index,
            n_pieces=dl.n_pieces,
        ))
        if len(dl.have) == dl.n_pieces:
            self._swarm_finish(dl)
        else:
            self._swarm_pump(dl)
