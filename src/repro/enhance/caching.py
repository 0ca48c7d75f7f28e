"""Popular-data caching (the paper's future work, Section 7).

"In the case that some extremely popular data are requested by a large
amount of peers, the peer hosting the data may be overwhelmed ...  The
goal of the caching scheme is to balance the load of the hosting peer
...  The challenges include how to choose some surrogate peers to
redirect the requests to, which data should be cached and how long the
data should be cached."

This module supplies the design the conclusion sketches:

* **which peers** -- two surrogate tiers: the *origin* of a successful
  lookup caches the item (its own repeats become free), and the
  origin's *t-peer* receives a :class:`CachePush` so every future
  remote lookup from that whole s-network is answered before touching
  the ring.  Surrogates therefore spread with demand: the hotter a key,
  the more s-networks hold a copy.
* **which data** -- whatever was actually requested (demand-driven), in
  an LRU cache of :data:`CACHE_CAPACITY` entries per peer.
* **how long** -- :data:`CACHE_TTL` of simulated time, refreshed on hits
  ("transmitting a packet through the link will refresh the attached
  timer" is the same pattern the paper uses for bypass links).

``HybridConfig.cache_enabled`` is the only knob; size and lifetime are
these module constants.  :class:`CacheMixin` is mixed into
:class:`~repro.core.hybridpeer.HybridPeer`; the cache sits in front of
the database on every lookup path (origin checks, ring t-peers check
before forwarding, flood receivers check).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from ..core.datastore import DataItem

__all__ = ["CACHE_CAPACITY", "CACHE_TTL", "LruCache", "CacheMixin"]

#: Entries per peer.
CACHE_CAPACITY = 32
#: Simulated ms before an unrefreshed copy expires.
CACHE_TTL = 300_000.0


class LruCache:
    """A TTL'd LRU cache of data items."""

    def __init__(self, capacity: int = CACHE_CAPACITY, ttl: float = CACHE_TTL) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        self.capacity = capacity
        self.ttl = ttl
        self._entries: "OrderedDict[str, Tuple[DataItem, float]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str, now: float) -> Optional[DataItem]:
        """Fetch and refresh; expired entries are dropped on access."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        item, expires = entry
        if expires <= now:
            del self._entries[key]
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        self._entries[key] = (item, now + self.ttl)
        return item

    def put(self, item: DataItem, now: float) -> None:
        """Insert/refresh; evicts the least-recently-used on overflow."""
        if item.key in self._entries:
            self._entries.move_to_end(item.key)
        self._entries[item.key] = (item, now + self.ttl)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def invalidate(self, key: str) -> None:
        self._entries.pop(key, None)

    def keys(self) -> list:
        return list(self._entries)


class CacheMixin:
    """Demand-driven caching hooks for the hybrid peer."""

    def cache_lookup(self, key: str) -> Optional[DataItem]:
        """Check the local cache (None when caching is disabled)."""
        if self.cache is None:
            return None
        return self.cache.get(key, self.engine.now)

    def cache_store(self, key: str, value, d_id: int) -> None:
        """Adopt an item as a surrogate copy."""
        if self.cache is None:
            return
        self.cache.put(DataItem(key, value, d_id), self.engine.now)
        self.emit("cache.fill", key=key)

    def cache_hit_answer(
        self, origin: int, qid: int, item: DataItem, hops: int = 0
    ) -> None:
        """Answer a query from cache (counts as served by us)."""
        self.answers_served += 1
        self._answer(origin, qid, item, hops=hops)
