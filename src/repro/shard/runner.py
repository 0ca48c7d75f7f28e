"""Sharded cell executor: one cell, N workers, bit-identical results.

:func:`run_cell_sharded` runs the same five phases as
:func:`repro.experiments.common.run_cell` but splits the lookup phase
across shard workers:

1. **Replicate** -- build + populate + crash + settle
   (:func:`~repro.experiments.common.prepare_cell`) are deterministic
   functions of (config, scale), so they run once and every worker gets
   the finished state: fork mode builds in the parent and forks
   (copy-on-write, no pickling) workers that talk over shared-memory
   rings (:mod:`repro.shard.ipc`); inline mode -- used where fork is
   unavailable, and as the tests' reference -- builds one replica per
   logical shard from the same seed.
2. **Partition** -- whole s-networks are assigned to shards
   (:mod:`repro.shard.partition`); each worker compacts the peers it
   does not own to stubs and installs the transport capture hook.
3. **Conservative lookup waves** -- the coordinator replays
   ``run_lookups``'s wave pacing: it pins every shard's clock to the
   wave timestamp, lets the owners issue their share, then negotiates
   null-message windows (:mod:`repro.shard.sync`) until the wave
   resolves.  Cross-shard messages travel worker-to-worker through
   the data rings (through the coordinator inline), sorted by (delivery
   time, origin shard, capture order), so every delivery happens in
   global timestamp order.
4. **Merge** -- per-shard registries are stitched back into one
   :class:`~repro.core.lookup.QueryRegistry` in global pair order, with
   foreign contact counts folded in and the metric overrun past the
   single-process stopping point trimmed
   (:meth:`~repro.shard.state.ShardQueryRegistry.trim`), which is what
   makes the resulting :class:`CellResult` bit-identical to
   ``run_cell``'s.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import time as _time
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.config import SEARCH_WALK, SNETWORK_BITTORRENT, HybridConfig
from ..core.lookup import PENDING, QueryRecord, QueryRegistry
from ..perf import PhaseSampler, memory_info
from .ipc import (
    CTRL_RING_BYTES,
    K_BLOB,
    K_BLOBC,
    K_CTRL,
    K_ERR,
    K_MSG,
    K_STATE,
    RingClosed,
    ShardFrameCodec,
    SpscRing,
    WorkerEndpoint,
    decode_state,
    encode_finish,
    encode_issue,
    encode_stop,
    encode_window,
    resolve_data_ring_bytes,
)
from .partition import partition_snetworks, shard_loads
from .state import SHARD_ID_BITS, CompactPeerState, ShardQueryRegistry
from .sync import NullMessageSync, ShardSyncError
from .worker import ShardWorker, serve_shm

__all__ = [
    "check_shardable",
    "run_cell_sharded",
    "merge_registries",
]


def check_shardable(config: HybridConfig) -> None:
    """Reject configurations the sharded executor does not support.

    The partition argument requires the lookup phase to be the only
    thing running: periodic protocol machinery (heartbeats, replica
    anti-entropy) and the alternative data planes that keep background
    state flowing are out of scope and fail loudly here rather than
    diverging silently.
    """
    problems = []
    if config.heartbeats_enabled:
        problems.append("heartbeats_enabled")
    if config.replication_factor > 1:
        problems.append("replication_factor > 1")
    if config.replica_sync_period > 0:
        problems.append("replica_sync_period > 0")
    if config.search_mode == SEARCH_WALK:
        problems.append("search_mode == 'walk'")
    if config.snetwork_style == SNETWORK_BITTORRENT:
        problems.append("snetwork_style == 'bittorrent'")
    if problems:
        raise ValueError(
            "configuration not supported by the sharded executor: "
            + ", ".join(problems)
        )


# ----------------------------------------------------------------------
# Worker backends
# ----------------------------------------------------------------------
class _Handle:
    """Uniform request/reply surface over a worker backend."""

    def send(self, request: tuple) -> None:
        raise NotImplementedError

    def recv(self) -> dict:
        raise NotImplementedError

    def stop(self) -> None:
        raise NotImplementedError


class _InlineHandle(_Handle):
    """A logical shard living in this process (no fork available)."""

    def __init__(self, worker: ShardWorker) -> None:
        self._worker = worker
        self._reply: Optional[tuple] = None

    def send(self, request: tuple) -> None:
        self._reply = self._worker.handle(request)

    def recv(self) -> dict:
        status, payload = self._reply
        self._reply = None
        return payload

    def stop(self) -> None:
        self._reply = None
        self._worker.close()


def _worker_failure(shard: int, detail: str) -> Exception:
    """A shard worker failed or died: raise with the shard named."""
    from ..exec.pool import CellExecutionError

    return CellExecutionError(f"shard {shard}", detail)


# ----------------------------------------------------------------------
# Forked workers behind shared-memory rings
# ----------------------------------------------------------------------
class _ShmHub:
    """Coordinator-side state of the shm transport.

    Owns every ring: one control pair per worker plus the ``i -> j``
    data-ring matrix the workers exchange messages through.  Also
    buffers spilled frames (data ring full) and the per-destination
    counts of ring frames each worker is owed at its next window --
    draining by exact count is what keeps window contents deterministic
    while producers keep writing next-round frames concurrently.
    """

    def __init__(self, shards: int, owner: Dict[int, int]) -> None:
        self.shards = shards
        self.owner = owner
        data_bytes = resolve_data_ring_bytes()
        self.c2w: List[SpscRing] = []
        self.w2c: List[SpscRing] = []
        self.data: Dict[Tuple[int, int], SpscRing] = {}
        try:
            for _ in range(shards):
                self.c2w.append(SpscRing.create(CTRL_RING_BYTES))
            for _ in range(shards):
                self.w2c.append(SpscRing.create(CTRL_RING_BYTES))
            for i in range(shards):
                for j in range(shards):
                    if i != j:
                        self.data[(i, j)] = SpscRing.create(data_bytes)
        except BaseException:
            # A create can fail part-way (EMFILE, ENOSPC): the caller
            # never sees this hub, so unlink what was made so far.
            self.close()
            raise
        # Spilled frames awaiting forwarding, per destination shard.
        self.spill: List[List[Tuple[int, bytes]]] = [[] for _ in range(shards)]
        # owed[dst][origin]: data-ring frames dst must drain at its
        # next window, accumulated from origin's state replies.
        self.owed: List[List[int]] = [[0] * shards for _ in range(shards)]
        self.spilled_frames = 0

    def endpoint(self, shard: int, peer_alive) -> WorkerEndpoint:
        """The worker-side view of shard ``shard`` (used post-fork)."""
        return WorkerEndpoint(
            shard,
            self.shards,
            ctrl_in=self.c2w[shard],
            ctrl_out=self.w2c[shard],
            rings_in={
                i: self.data[(i, shard)]
                for i in range(self.shards) if i != shard
            },
            rings_out={
                j: self.data[(shard, j)]
                for j in range(self.shards) if j != shard
            },
            peer_alive=peer_alive,
        )

    def ipc_totals(self, worker_counters: Sequence[Optional[dict]]) -> dict:
        totals = {
            "backend": "shm",
            "data_bytes": 0,
            "data_frames": 0,
            "ctrl_bytes": 0,
            "spilled_frames": self.spilled_frames,
            "pickled_fallbacks": 0,  # always: bench/ still reads the key (ROADMAP 2a)
        }
        for c in worker_counters:
            if not c:
                continue
            totals["data_bytes"] += c["data_bytes_out"]
            totals["data_frames"] += c["data_frames_out"]
            totals["ctrl_bytes"] += c["ctrl_bytes_out"] + c["ctrl_bytes_in"]
        return totals

    def close(self) -> None:
        """Detach from and unlink every ring, whatever state the run left."""
        for ring in (*self.c2w, *self.w2c, *self.data.values()):
            try:
                ring.close()
            except BufferError:
                # A failed recv's frame, alive in the propagating
                # traceback, still exports the ring's view.  The mapping
                # goes when that frame does; the name must go now.
                pass
            ring.unlink()


class _ShmHandle(_Handle):
    """A forked worker behind the shared-memory rings."""

    def __init__(self, hub: _ShmHub, shard: int, process) -> None:
        self._hub = hub
        self._shard = shard
        self._process = process
        self._alive = process.is_alive

    def _dead(self, cause: Exception) -> Exception:
        code = self._process.exitcode
        return _worker_failure(
            self._shard,
            f"worker process died (exit code {code}): {cause}",
        )

    def send(self, request: tuple) -> None:
        hub = self._hub
        ring = hub.c2w[self._shard]
        op = request[0]
        try:
            if op == "issue":
                ring.write(K_CTRL, encode_issue(*request[1:]), self._alive)
            elif op == "window":
                # The inbox argument is inline-mode only; here the spill
                # buffer and owed counts replace it (and are reset --
                # the worker drains everything at this window).
                spills = hub.spill[self._shard]
                hub.spill[self._shard] = []
                owed = hub.owed[self._shard]
                hub.owed[self._shard] = [0] * hub.shards
                ring.write(
                    K_CTRL,
                    encode_window(request[1], len(spills), owed),
                    self._alive,
                )
                for kind, frame in spills:
                    ring.write(kind, frame, self._alive)
            elif op == "finish":
                ring.write(K_CTRL, encode_finish(request[1]), self._alive)
            else:
                raise ValueError(f"unknown shard request {op!r}")
        except RingClosed as exc:
            raise self._dead(exc) from None

    def recv(self) -> dict:
        hub = self._hub
        ring = hub.w2c[self._shard]
        blob_parts: List[bytes] = []
        try:
            while True:
                kind, view = ring.read(peer_alive=self._alive)
                if kind == K_MSG:
                    # A spilled delivery: buffer for the destination's
                    # next window.  Its count/min-time already ride in
                    # the state summary, so only routing happens here.
                    dst = hub.owner[ShardFrameCodec.peek_destination(view)]
                    hub.spill[dst].append((kind, bytes(view)))
                    hub.spilled_frames += 1
                elif kind == K_STATE:
                    next_time, unresolved, max_end, summaries = decode_state(view)
                    for dst, (ring_frames, _total, _min_t) in enumerate(summaries):
                        hub.owed[dst][self._shard] += ring_frames
                    return {
                        "next_time": next_time,
                        "unresolved": unresolved,
                        "max_end": max_end,
                        "outbox": [],
                        "summaries": summaries,
                    }
                elif kind == K_BLOBC:
                    blob_parts.append(bytes(view))
                elif kind == K_BLOB:
                    blob_parts.append(bytes(view))
                    return pickle.loads(b"".join(blob_parts))
                elif kind == K_ERR:
                    raise _worker_failure(self._shard, bytes(view).decode())
                else:
                    raise RuntimeError(
                        f"unexpected frame kind {kind} from shard {self._shard}"
                    )
        except RingClosed as exc:
            raise self._dead(exc) from None

    def stop(self) -> None:
        try:
            self._hub.c2w[self._shard].write(
                K_CTRL, encode_stop(), self._alive, timeout=5.0
            )
        except Exception:
            pass
        self._hub.c2w[self._shard].close_producer()
        self._process.join(timeout=30)
        if self._process.is_alive():  # pragma: no cover - hung worker
            self._process.terminate()
            self._process.join(timeout=5)


def _serve_forked_shm(hub, system, shard_index, n_shards, owner, pairs) -> None:
    """Entry point of a forked worker (inherits the built system)."""
    parent = os.getppid()
    endpoint = hub.endpoint(shard_index, peer_alive=lambda: os.getppid() == parent)
    worker = ShardWorker(system, shard_index, n_shards, owner, pairs)
    worker.compact(retain=True)
    serve_shm(endpoint, worker)


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
def _coordinate(
    handles: Sequence[_Handle],
    sync: NullMessageSync,
    n_pairs: int,
    wave_size: int,
    start_time: float,
) -> Tuple[float, int, int]:
    """Drive the wave/window protocol; returns (cut_time, waves, rounds).

    ``cut_time`` is the global resolution timestamp of the last wave --
    exactly where the single-process run's clock stops.
    """
    def absorb(shard: int, reply: dict) -> None:
        """Fold one state reply into the sync bookkeeping.

        Inline replies carry the captured messages themselves; shm
        replies carry per-destination (count, min time) summaries
        while the bodies sit in the data rings.
        """
        sync.note_state(shard, reply["next_time"])
        summaries = reply.get("summaries")
        if summaries is None:
            sync.add_messages(shard, reply["outbox"])
        else:
            for dst, (_ring_frames, total, min_time) in enumerate(summaries):
                sync.add_summary(dst, total, min_time)

    n_shards = len(handles)
    wave_time = start_time
    fold_time = float("-inf")
    global_max_end = start_time
    waves = rounds = 0
    lo = 0
    while lo < n_pairs:
        hi = min(lo + wave_size, n_pairs)
        unresolved = 0
        for handle in handles:
            handle.send(("issue", wave_time, lo, hi, fold_time))
        for shard, handle in enumerate(handles):
            reply = handle.recv()
            absorb(shard, reply)
            unresolved += reply["unresolved"]
            if reply["max_end"] > global_max_end:
                global_max_end = reply["max_end"]
        while unresolved > 0:
            w_end = sync.window_end()
            if w_end is None:
                raise ShardSyncError(
                    f"{unresolved} lookups unresolved but no shard has "
                    "pending events or in-flight messages"
                )
            for shard, handle in enumerate(handles):
                handle.send(("window", w_end, sync.take_inbox(shard)))
            unresolved = 0
            for shard, handle in enumerate(handles):
                reply = handle.recv()
                absorb(shard, reply)
                unresolved += reply["unresolved"]
                if reply["max_end"] > global_max_end:
                    global_max_end = reply["max_end"]
            rounds += 1
        wave_time = fold_time = global_max_end
        waves += 1
        lo = hi
    return global_max_end, waves, rounds


# ----------------------------------------------------------------------
# Merge
# ----------------------------------------------------------------------
def merge_registries(
    shard_results: Sequence[dict],
    pairs: Sequence[Tuple[int, str]],
    owner: Dict[int, int],
) -> QueryRegistry:
    """Stitch per-shard registries into one, in global pair order.

    Each shard started its owned lookups in global pair order, so
    walking the pairs and consuming each owner's record stream in turn
    reproduces the single-process id assignment exactly; foreign
    contact counts are then folded onto the records they belong to.
    """
    merged = QueryRegistry()
    streams = [iter(r["records"]) for r in shard_results]
    # (shard, local index) -> global query id, for foreign fold-in.
    to_global: List[Dict[int, int]] = [dict() for _ in shard_results]
    for g, (origin, key) in enumerate(pairs):
        shard = owner[origin]
        (
            local_idx, rec_origin, rec_key, d_id, start_time, local,
            status, end_time, holder, refloods, via_bypass, hops,
        ) = next(streams[shard])
        if rec_origin != origin or rec_key != key:
            raise RuntimeError(
                f"shard {shard} record stream out of order at pair {g}: "
                f"expected ({origin}, {key!r}), got ({rec_origin}, {rec_key!r})"
            )
        to_global[shard][local_idx] = g
        rec = QueryRecord(
            query_id=g, origin=origin, key=key, d_id=d_id,
            start_time=start_time, local=local, status=status,
            end_time=end_time, holder=holder, refloods=refloods,
            via_bypass=via_bypass, hops=hops, registry=merged,
        )
        merged._records[g] = rec
        merged._contacts.append(shard_results[shard]["contacts"][local_idx])
        merged._duplicates.append(shard_results[shard]["duplicates"][local_idx])
        if status == PENDING:
            merged.unresolved += 1
    merged._next_id = len(pairs)
    for result in shard_results:
        for kind, column in (
            ("foreign_contacts", merged._contacts),
            ("foreign_duplicates", merged._duplicates),
        ):
            for qid, count in result[kind].items():
                shard = qid >> SHARD_ID_BITS
                local_idx = qid - (shard << SHARD_ID_BITS)
                column[to_global[shard][local_idx]] += count
    return merged


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_cell_sharded(
    config: HybridConfig,
    scale,
    crash_fraction: float = 0.0,
    shards: int = 2,
    mode: Optional[str] = None,
    info_out: Optional[dict] = None,
):
    """Run one sweep cell across ``shards`` workers; returns CellResult.

    ``mode`` selects the worker substrate: "fork" (build once, fork
    workers that exchange struct-encoded frames over shared-memory
    rings -- the default where the platform supports it), "inline"
    (logical shards in-process, each building its own replica; slower,
    used for tests and as the portable fallback).  ``info_out``
    receives shard diagnostics (loads, window rounds, event/message
    totals, per-phase memory samples, IPC byte counts; ``"backend"``
    reads "shm" or "inline").
    """
    from ..experiments.common import CellResult, prepare_cell

    shards = int(shards)
    if shards < 1:
        raise ValueError("shards must be >= 1")
    check_shardable(config)
    if mode is None:
        mode = (
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "inline"
        )
    if mode not in ("fork", "inline"):
        raise ValueError(f"unknown shard mode {mode!r}")

    sampler = PhaseSampler()
    build_t0 = _time.perf_counter()
    system, pairs = prepare_cell(
        config, scale, crash_fraction, queries=ShardQueryRegistry()
    )
    build_wall = _time.perf_counter() - build_t0
    sampler.mark("build")

    compact = CompactPeerState(system)
    owner = partition_snetworks(compact, shards, system.server.address)
    n_t, n_s = compact.counts()
    lookahead = max(
        system.router.min_edge_latency(), system.transport.min_latency
    )
    start_time = system.engine.now
    build_events = system.engine.events_executed
    sampler.mark("partition")

    lookup_t0 = _time.perf_counter()
    handles: List[_Handle] = []
    hub: Optional[_ShmHub] = None
    frozen = False
    try:
        if mode == "fork":
            ctx = multiprocessing.get_context("fork")
            hub = _ShmHub(shards, owner)
            # Move every live object to the permanent generation before
            # forking: collector passes in the children would otherwise
            # touch gc headers across the whole inherited heap and
            # privatise the copy-on-write pages it lives in.
            gc.collect()
            gc.freeze()
            frozen = True
            for shard in range(shards):
                process = ctx.Process(
                    target=_serve_forked_shm,
                    args=(hub, system, shard, shards, owner, pairs),
                    daemon=True,
                )
                process.start()
                handles.append(_ShmHandle(hub, shard, process))
        else:
            for shard in range(shards):
                if shard == 0:
                    replica = system
                else:
                    replica, _ = prepare_cell(
                        config, scale, crash_fraction, queries=ShardQueryRegistry()
                    )
                worker = ShardWorker(replica, shard, shards, owner, pairs)
                worker.compact()
                handles.append(_InlineHandle(worker))
        sampler.mark("workers_up")

        sync = NullMessageSync(shards, lookahead)
        cut_time, waves, rounds = _coordinate(
            handles, sync, len(pairs), scale.wave_size, start_time
        )
        results = []
        for handle in handles:
            handle.send(("finish", cut_time))
        for handle in handles:
            results.append(handle.recv())
    finally:
        for handle in handles:
            handle.stop()
        if frozen:
            gc.unfreeze()
        if hub is not None:
            hub.close()
        # Everything the merge needs was copied out (``compact``,
        # ``owner``, ``pairs``, the workers' exports): free the parent's
        # copy of the cell by reference count, not at some later gen-2.
        system.close()
    lookup_wall = _time.perf_counter() - lookup_t0
    ipc = (
        hub.ipc_totals([r.get("ipc") for r in results])
        if hub is not None
        else {"backend": "inline"}
    )
    sampler.mark(
        "lookup",
        ipc_bytes=ipc.get("data_bytes", 0) + ipc.get("ctrl_bytes", 0),
    )

    merged = merge_registries(results, pairs, owner)
    stats = merged.stats()
    sampler.mark("merge")
    if info_out is not None:
        try:
            import resource
            parent_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        except Exception:  # pragma: no cover - non-POSIX
            parent_rss_kb = 0
        info_out.update({
            "shards": shards,
            "mode": mode,
            "backend": ipc["backend"],
            "lookahead_ms": lookahead,
            "waves": waves,
            "window_rounds": rounds,
            "cut_time_ms": cut_time,
            "shard_loads": shard_loads(compact, owner, shards),
            "build_events": build_events,
            "lookup_events_per_shard": [r["events"] for r in results],
            "events_total": build_events + sum(r["events"] for r in results),
            "messages_sent": [r["messages_sent"] for r in results],
            "messages_delivered": [r["messages_delivered"] for r in results],
            "build_wall_seconds": build_wall,
            "lookup_wall_seconds": lookup_wall,
            "peak_rss_kb": {
                "parent": parent_rss_kb,
                "workers": [r["peak_rss_kb"] for r in results],
            },
            "memory": {
                "parent": memory_info(),
                "parent_phases": sampler.as_list(),
                "workers": [r.get("mem") for r in results],
            },
            "ipc": ipc,
            "registry": merged,
            "peer_state": compact,
        })
    return CellResult.from_stats(config, stats, n_t, n_s)
