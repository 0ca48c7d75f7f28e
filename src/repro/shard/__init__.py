"""Sharded multi-core simulation substrate.

Runs one sweep cell across N worker shards -- each owning the peers of
a subset of s-networks with its own event heap -- under conservative
(null-message) time synchronization, producing results bit-identical
to the single-process :func:`repro.experiments.common.run_cell`.

Public surface:

* :func:`run_cell_sharded` / :func:`resolve_shards` -- the executor
  and the ``--shards`` / ``REPRO_SHARDS`` plumbing (plus
  ``REPRO_SHARDS_STRICT`` via :func:`resolve_shards_strict`);
* :class:`NullMessageSync` -- the lower-bound-timestamp window logic;
* :class:`SpscRing` / :class:`ShardFrameCodec` -- the shared-memory
  ring transport and struct frame encoding forked workers talk over
  (:mod:`repro.shard.ipc`);
* :class:`ShardQueryRegistry` / :func:`merge_registries` -- exact
  metric aggregation across shards;
* :class:`CompactPeerState` -- numpy columnar peer state for
  partitioning and large-scale metrics.
"""

from .ipc import (
    RingClosed,
    RingError,
    RingTimeout,
    ShardFrameCodec,
    SpscRing,
)
from .partition import partition_snetworks, shard_loads
from .runner import (
    SHARDS_ENV,
    SHARDS_STRICT_ENV,
    check_shardable,
    merge_registries,
    resolve_shards,
    resolve_shards_strict,
    run_cell_sharded,
)
from .state import CompactPeerState, PeerStub, ShardQueryRegistry
from .sync import NullMessageSync, ShardSyncError
from .worker import ShardWorker

__all__ = [
    "SHARDS_ENV",
    "SHARDS_STRICT_ENV",
    "CompactPeerState",
    "NullMessageSync",
    "PeerStub",
    "RingClosed",
    "RingError",
    "RingTimeout",
    "ShardFrameCodec",
    "ShardQueryRegistry",
    "ShardSyncError",
    "ShardWorker",
    "SpscRing",
    "check_shardable",
    "merge_registries",
    "partition_snetworks",
    "resolve_shards",
    "resolve_shards_strict",
    "run_cell_sharded",
    "shard_loads",
]
