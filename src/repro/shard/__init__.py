"""Sharded multi-core simulation substrate.

Runs one sweep cell across N forked worker shards -- each owning the
peers of a subset of s-networks with its own event heap -- under
conservative (null-message) time synchronization, producing results
bit-identical to the single-process
:func:`repro.experiments.common.run_cell`.  Workers are forked from the
built cell and talk over POSIX shared-memory rings, so the package runs
only where ``fork`` exists.

Public surface:

* :func:`run_cell_sharded` -- the executor behind
  ``run_cell(..., shards=N)``, for one hand-run 10^5/10^6 cell (sweeps
  parallelise across cells instead, via ``CellExecutor(jobs=)``);
  :func:`check_shardable` raises for the configs it cannot host;
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
    check_shardable,
    merge_registries,
    run_cell_sharded,
)
from .state import CompactPeerState, PeerStub, ShardQueryRegistry
from .sync import NullMessageSync, ShardSyncError
from .worker import ShardWorker

__all__ = [
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
    "run_cell_sharded",
    "shard_loads",
]
