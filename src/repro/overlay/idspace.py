"""Identifier-space arithmetic.

Both peers and data items live in one circular integer ID space:
t-peers carry a ``p_id``; a data key is hashed to a ``d_id`` "in the
same range as p_id" (Section 3.1).  The ``p_id``s of the t-peers cut
the circle into segments, and each s-network serves the data whose
``d_id`` falls in its t-peer's segment.

All interval logic here is modular ("wrapping"), matching Chord
conventions: a segment owned by t-peer ``t`` with predecessor ``p`` is
the half-open arc ``(p, t]``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

__all__ = ["ID_BITS", "IdSpace", "ClusteredIdSpace"]

#: Width of the simulator's and the live runtime's identifier space.
ID_BITS = 32


@dataclass(frozen=True)
class IdSpace:
    """A circular ID space of size ``2**bits``.

    The paper does not fix the space size; 32 bits comfortably exceeds
    any simulated population and keeps hashes cheap.
    """

    bits: int = ID_BITS

    def __post_init__(self) -> None:
        if not (1 <= self.bits <= 128):
            raise ValueError(f"bits must be in [1, 128], got {self.bits}")
        # The space size is a power of two, so all modular reductions
        # below are bitmasks.  Cached here (bypassing frozen) because
        # interval tests run millions of times per experiment.
        object.__setattr__(self, "_mask", (1 << self.bits) - 1)

    @property
    def size(self) -> int:
        return 1 << self.bits

    # ------------------------------------------------------------------
    # Hashing
    # ------------------------------------------------------------------
    def hash_key(self, key: str) -> int:
        """Hash a data key to a ``d_id``.

        Uses BLAKE2b (stable across processes, unlike builtin ``hash``)
        truncated to the space size.
        """
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=16).digest()
        return int.from_bytes(digest, "big") % self.size

    # ------------------------------------------------------------------
    # Circle arithmetic
    # ------------------------------------------------------------------
    def normalize(self, x: int) -> int:
        """Reduce ``x`` into the space."""
        return x & self._mask

    def distance_cw(self, a: int, b: int) -> int:
        """Clockwise distance from ``a`` to ``b`` (0 when equal)."""
        return (b - a) & self._mask

    def in_interval(
        self,
        x: int,
        left: int,
        right: int,
        *,
        closed_left: bool = False,
        closed_right: bool = False,
    ) -> bool:
        """Is ``x`` in the clockwise arc from ``left`` to ``right``?

        The arc is open at both ends unless ``closed_*`` flags say
        otherwise.  When ``left == right`` the open arc is the whole
        circle minus the point (single-peer ring semantics): every
        other point is inside.
        """
        mask = self._mask
        x &= mask
        left &= mask
        right &= mask
        if left == right:
            if x == left:
                return closed_left or closed_right
            return True
        if x == left:
            return closed_left
        if x == right:
            return closed_right
        # x differs from both endpoints, so the strict comparison below
        # is exactly the original ``0 < dist(left, x) < dist(left, right)``.
        return ((x - left) & mask) < ((right - left) & mask)

    def owner_segment_contains(self, d_id: int, predecessor_id: int, owner_id: int) -> bool:
        """Does the segment ``(predecessor, owner]`` contain ``d_id``?

        This is the ownership test used by both data placement and
        lookup routing; it is the single hottest predicate in the
        system, hence the flattened arithmetic (equivalent to
        ``in_interval(..., closed_right=True)``).
        """
        mask = self._mask
        d = (d_id - predecessor_id) & mask
        r = (owner_id - predecessor_id) & mask
        if r == 0:  # predecessor == owner: the whole circle
            return True
        return 0 < d <= r

    def midpoint_cw(self, a: int, b: int) -> int:
        """The clockwise midpoint of the arc from ``a`` to ``b``.

        Used for ``p_id`` conflict resolution: *"the t-peer initiating
        the join process will generate a new p_id which lies in between
        the p_id of itself and its successor ... simply the midpoint for
        load balancing purpose"* (Section 3.2.1).

        When ``a == b`` the arc is the whole circle (single-member
        ring), so the midpoint is the antipode.
        """
        if self.normalize(a) == self.normalize(b):
            return self.normalize(a + self.size // 2)
        return self.normalize(a + self.distance_cw(a, b) // 2)

    def finger_start(self, p_id: int, k: int) -> int:
        """Start of the k-th finger interval: ``p_id + 2**k``."""
        if not (0 <= k < self.bits):
            raise ValueError(f"finger index {k} out of range for {self.bits}-bit space")
        return self.normalize(p_id + (1 << k))


@dataclass(frozen=True)
class ClusteredIdSpace(IdSpace):
    """An ID space where same-category keys cluster into one band.

    Section 5.3's interest-based s-networks serve "data of some common
    properties", i.e. a whole category must hash into one segment.
    This space realises that: a key of the form ``"category:rest"``
    hashes to ``band(category) | low_hash(rest)`` where the band is the
    top ``bits - band_bits`` bits of the category's hash.  All keys of a
    category therefore land within a ``2**band_bits``-wide arc around
    the category anchor ``hash_key(category)``, which is the id the
    server uses to pick the anchoring t-peer.

    Keys without a ``":"`` hash uniformly, exactly like the base space.
    """

    band_bits: int = 16

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (1 <= self.band_bits < self.bits):
            raise ValueError(
                f"band_bits must be in [1, bits), got {self.band_bits} for "
                f"{self.bits}-bit space"
            )

    def hash_key(self, key: str) -> int:
        category, sep, rest = key.partition(":")
        if not sep or not category:
            return super().hash_key(key)
        band_mask = ((1 << (self.bits - self.band_bits)) - 1) << self.band_bits
        band = super().hash_key(category) & band_mask
        low = super().hash_key(rest) & ((1 << self.band_bits) - 1)
        return band | low
