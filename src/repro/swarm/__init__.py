"""repro.swarm -- tracker-mode s-networks + chunked bulk data plane.

Paper Section 5.5 sketches BitTorrent-style s-networks: the t-peer acts
as a tracker so bulk content moves peer-to-peer with no flooding.  This
package implements the full data plane on top of that sketch:

- :mod:`manifest` -- content split into fixed-size SHA-256-hashed
  pieces, described by a JSON-able manifest that rides the existing put
  path (the manifest *is* the stored value; pieces move out of band).
- :mod:`pieces` -- byte-bitmap helpers and deterministic rarest-first
  piece selection.
- :mod:`tracker` -- the segment-owning t-peer's availability registry
  (who holds which pieces of which content).
- :mod:`protocol` -- :class:`SwarmMixin`, the peer-side protocol: the
  same code drives the simulator and the live asyncio runtime.

Composed only into a BitTorrent-style s-network
(``snetwork_style="bittorrent"``), whose lookups resolve from the same
tracker; under the default Gnutella style no peer class has the mixin.
"""

from .manifest import (
    assemble,
    build_manifest,
    content_hash,
    is_manifest,
    piece_hash,
    split_pieces,
    verify_piece,
)
from .pieces import (
    bitmap_all,
    bitmap_count,
    bitmap_get,
    bitmap_new,
    bitmap_set,
    rarest_first,
)
from .protocol import SwarmMixin
from .tracker import SwarmTracker

__all__ = [
    "assemble",
    "build_manifest",
    "content_hash",
    "is_manifest",
    "piece_hash",
    "split_pieces",
    "verify_piece",
    "bitmap_all",
    "bitmap_count",
    "bitmap_get",
    "bitmap_new",
    "bitmap_set",
    "rarest_first",
    "SwarmMixin",
    "SwarmTracker",
]
