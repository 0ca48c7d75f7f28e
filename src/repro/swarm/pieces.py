"""Byte bitmaps and rarest-first piece selection.

Bitmaps are ``bytes``/``bytearray`` little-endian by bit: piece ``i``
lives in bit ``i % 8`` of byte ``i // 8``.  They travel on the wire as
``bytes`` fields (the codec's int runs are signed 64-bit, so an
arbitrary-width int bitmap would fail to encode for content over 64
pieces).

Selection is a pure, deterministic function of its inputs -- the sim's
determinism golden depends on no hidden RNG in the swarm path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

__all__ = [
    "bitmap_new",
    "bitmap_all",
    "bitmap_get",
    "bitmap_set",
    "bitmap_count",
    "rarest_first",
]

_POPCOUNT = [bin(i).count("1") for i in range(256)]


def bitmap_new(n_pieces: int) -> bytearray:
    """All-zero bitmap sized for ``n_pieces``."""
    return bytearray((max(0, n_pieces) + 7) // 8)


def bitmap_all(n_pieces: int) -> bytearray:
    """Full bitmap: every piece bit set, trailing pad bits clear."""
    bm = bitmap_new(n_pieces)
    for i in range(n_pieces):
        bm[i >> 3] |= 1 << (i & 7)
    return bm


def bitmap_get(bm: Sequence[int], index: int) -> bool:
    """True when bit ``index`` is set (out-of-range reads are False)."""
    byte = index >> 3
    if byte >= len(bm):
        return False
    return bool(bm[byte] & (1 << (index & 7)))


def bitmap_set(bm: bytearray, index: int) -> None:
    """Set bit ``index``, growing the bitmap if needed."""
    byte = index >> 3
    if byte >= len(bm):
        bm.extend(b"\x00" * (byte + 1 - len(bm)))
    bm[byte] |= 1 << (index & 7)


def bitmap_count(bm: Sequence[int]) -> int:
    """Number of set bits."""
    return sum(_POPCOUNT[b] for b in bm)


def rarest_first(
    n_pieces: int,
    have: Set[int],
    requested: Set[int],
    holder_maps: Dict[int, bytes],
    inflight: Dict[int, int],
    max_inflight: int,
    budget: int,
    salt: int = 0,
) -> List[Tuple[int, int]]:
    """Pick up to ``budget`` (piece, holder) pairs, rarest piece first.

    ``holder_maps`` is holder address -> bitmap; ``inflight`` tracks
    requests already outstanding per holder and is NOT mutated (the
    caller applies the plan).  Per-holder load stays under
    ``max_inflight`` including the pairs picked here.

    Deterministic: pieces order by (availability, rotated index) and the
    holder for each piece rotates by ``salt + index`` among eligible
    holders, so concurrent downloaders with different salts (their
    addresses) spread first requests across both pieces and holders
    instead of stampeding the same seed.
    """
    if budget <= 0 or not holder_maps:
        return []
    # Availability per wanted piece, and who can serve it.
    holders = sorted(holder_maps)
    avail: Dict[int, List[int]] = {}
    for index in range(n_pieces):
        if index in have or index in requested:
            continue
        sources = [h for h in holders if bitmap_get(holder_maps[h], index)]
        if sources:
            avail[index] = sources
    if not avail:
        return []
    order = sorted(
        avail,
        key=lambda i: (len(avail[i]), (i + salt) % n_pieces if n_pieces else 0, i),
    )
    load = dict(inflight)
    plan: List[Tuple[int, int]] = []
    for index in order:
        if len(plan) >= budget:
            break
        sources = avail[index]
        pick: Optional[int] = None
        # Rotate the starting holder so piece i doesn't always hit the
        # first address; skip holders already at their inflight cap.
        start = (salt + index) % len(sources)
        for off in range(len(sources)):
            h = sources[(start + off) % len(sources)]
            if load.get(h, 0) < max_inflight:
                pick = h
                break
        if pick is None:
            continue
        load[pick] = load.get(pick, 0) + 1
        plan.append((index, pick))
    return plan
