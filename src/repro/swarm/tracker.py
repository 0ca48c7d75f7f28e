"""The t-peer side of tracker mode: who holds which pieces.

Paper Section 5.5: "the t-peer works as the 'tracker'".  The segment
owner of a content id keeps, per content, every announced holder's
piece bitmap.  Downloaders announce (full query) and then stream
:class:`~repro.overlay.messages.HaveAnnounce` updates as pieces arrive,
so the tracker's availability view stays fresh without re-announcing
whole bitmaps.  A stored item is a one-piece content under its key:
its s-peer holders announce piece 0, and lookups resolve from here.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .pieces import bitmap_count, bitmap_new, bitmap_set

__all__ = ["SwarmTracker"]


class _ContentEntry:
    __slots__ = ("n_pieces", "holders")

    def __init__(self, n_pieces: int) -> None:
        self.n_pieces = n_pieces
        self.holders: Dict[int, bytearray] = {}


class SwarmTracker:
    """Availability registry for every content this t-peer tracks."""

    __slots__ = ("_contents",)

    def __init__(self) -> None:
        self._contents: Dict[str, _ContentEntry] = {}

    # ------------------------------------------------------------------
    def announce(self, content: str, holder: int, n_pieces: int, have: bytes) -> None:
        """Register (or refresh) a holder's full bitmap."""
        entry = self._contents.get(content)
        if entry is None:
            entry = self._contents[content] = _ContentEntry(n_pieces)
        elif n_pieces > entry.n_pieces:
            entry.n_pieces = n_pieces
        entry.holders[holder] = bytearray(have)

    def have(self, content: str, holder: int, piece: int, n_pieces: int) -> None:
        """Apply an incremental piece acquisition."""
        entry = self._contents.get(content)
        if entry is None:
            entry = self._contents[content] = _ContentEntry(n_pieces)
        bm = entry.holders.get(holder)
        if bm is None:
            bm = entry.holders[holder] = bitmap_new(entry.n_pieces)
        bitmap_set(bm, piece)

    def drop_holder(self, holder: int) -> None:
        """Forget a holder that left, for every content."""
        for entry in self._contents.values():
            entry.holders.pop(holder, None)

    # ------------------------------------------------------------------
    def holders_for(
        self, content: str, exclude: int = -1, limit: int = 32
    ) -> Tuple[Tuple[int, bytes], ...]:
        """Holder set for one content, best-stocked first, capped.

        ``exclude`` keeps the requester out of its own answer.  Ties
        break by address for determinism.
        """
        entry = self._contents.get(content)
        if entry is None:
            return ()
        ranked = sorted(
            ((addr, bm) for addr, bm in entry.holders.items() if addr != exclude),
            key=lambda pair: (-bitmap_count(pair[1]), pair[0]),
        )
        return tuple((addr, bytes(bm)) for addr, bm in ranked[:limit])

    def n_pieces(self, content: str) -> int:
        entry = self._contents.get(content)
        return entry.n_pieces if entry is not None else 0

    def holder_count(self, content: Optional[str] = None) -> int:
        """Holders of one content, or distinct holders across all."""
        if content is not None:
            entry = self._contents.get(content)
            return len(entry.holders) if entry is not None else 0
        seen: set = set()
        for entry in self._contents.values():
            seen.update(entry.holders)
        return len(seen)

    def contents(self) -> List[str]:
        return list(self._contents)

    def __len__(self) -> int:
        return len(self._contents)
