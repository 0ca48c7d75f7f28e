"""The hybrid peer-to-peer system (the paper's contribution).

Public surface:

* :class:`~repro.core.config.HybridConfig` -- every tunable (p_s, delta,
  TTL, placement scheme, enhancements);
* :class:`~repro.core.hybrid.HybridSystem` -- build and drive a full
  deployment;
* :class:`~repro.core.hybridpeer.HybridPeer` -- a single peer (role "t"
  or "s");
* :class:`~repro.core.server.BootstrapServer` -- the well-known server;
* :class:`~repro.core.lookup.QueryRegistry` / ``QueryStats`` -- the
  evaluation metrics (latency, failure ratio, connum).
"""

from .config import (
    ASSIGN_BALANCED,
    ASSIGN_INTEREST,
    PLACEMENT_DIRECT,
    PLACEMENT_SPREAD,
    ROUTING_FINGER,
    ROUTING_LINEAR,
    SNETWORK_BITTORRENT,
    SNETWORK_GNUTELLA,
    HybridConfig,
)
from .datastore import DataItem, DataStore
from .hybrid import HybridSystem
from .hybridpeer import HybridPeer
from .lookup import QueryRecord, QueryRegistry, QueryStats
from .server import BootstrapServer, RingDirectory

__all__ = [
    "HybridConfig",
    "HybridSystem",
    "HybridPeer",
    "BootstrapServer",
    "RingDirectory",
    "DataItem",
    "DataStore",
    "QueryRecord",
    "QueryRegistry",
    "QueryStats",
    "PLACEMENT_DIRECT",
    "PLACEMENT_SPREAD",
    "ROUTING_LINEAR",
    "ROUTING_FINGER",
    "ASSIGN_BALANCED",
    "ASSIGN_INTEREST",
    "SNETWORK_GNUTELLA",
    "SNETWORK_BITTORRENT",
]
