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
these module constants.  With :class:`CacheMixin` in the peer class the
cache sits in front of the database on every lookup path (origin checks,
ring t-peers check before forwarding, flood receivers check).
"""

from __future__ import annotations

from collections import OrderedDict
from functools import cached_property
from typing import Any, Optional, Tuple

from ..core.datastore import DataItem
from ..overlay.messages import CachePush, DataFound

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

    @cached_property
    def cache(self) -> LruCache:
        """This peer's surrogate copies."""
        return LruCache()

    def cache_store(self, key: str, value, d_id: int) -> None:
        """Adopt an item as a surrogate copy."""
        self.cache.put(DataItem(key, value, d_id), self.engine.now)
        self.emit("cache.fill", key=key)

    def on_DataFound(self, msg: DataFound) -> Any:
        """The origin caches what it found elsewhere."""
        pending = super().on_DataFound(msg)
        if pending is not None and msg.holder != self.address:
            d_id = self.idspace.hash_key(msg.key)
            self.cache_store(msg.key, msg.value, d_id)
            if self.role == "s" and not self.owns_locally(d_id):
                # Seed the s-network's gateway surrogate: future
                # remote lookups from this network stop at the t-peer.
                self.send(
                    self.t_peer,
                    CachePush(key=msg.key, value=msg.value, d_id=d_id),
                )
        return pending

    def on_CachePush(self, msg: CachePush) -> None:
        """Adopt a surrogate copy pushed by an s-network member."""
        self.cache_store(msg.key, msg.value, msg.d_id)
