"""One shard of a sharded cell run.

A :class:`ShardWorker` wraps a fully built :class:`HybridSystem` whose
construction phases (build, populate, crash, settle) already ran: every
forked worker inherits the *same* built system from the parent.  From
that point the worker:

* installs the transport's shard-capture hook so deliveries to peers
  owned by other shards are buffered instead of scheduled locally;
* swaps non-owned peers for :class:`PeerStub` residues;
* answers the coordinator's three requests -- ``issue`` (pin the clock
  to the wave timestamp and start the owned lookups of the wave),
  ``window`` (schedule inbound cross-shard deliveries, run everything
  strictly below the negotiated barrier), and ``finish`` (trim the
  metric overrun and export records/counters for the merge).

:func:`serve_shm` speaks that request/response loop over the
shared-memory rings of the forked worker.
"""

from __future__ import annotations

import traceback
from typing import Dict, List, Sequence, Tuple

from ..perf import maybe_profile, memory_info, rss_kb
from .ipc import RingClosed, WorkerEndpoint
from .state import PeerStub

__all__ = ["ShardWorker", "serve_shm"]


class ShardWorker:
    """Executes the lookup phase for one shard's peers."""

    def __init__(
        self,
        system,
        shard_index: int,
        n_shards: int,
        owner: Dict[int, int],
        pairs: Sequence[Tuple[int, str]],
    ) -> None:
        self.system = system
        self.engine = system.engine
        self.shard_index = int(shard_index)
        self.n_shards = int(n_shards)
        self.owner = owner
        self.pairs = pairs
        self.registry = system.queries
        self.registry.configure(self.shard_index, self.engine)
        # Captured cross-shard deliveries since the last reply:
        # (deliver_time, dst_shard, dst_address, msg).
        self._outbox: List[tuple] = []
        # Retired peer objects kept alive by compact() to preserve
        # copy-on-write sharing with the fork parent.
        self._retired: List[object] = []
        # Per-phase VmRSS samples, exported with the finish payload.
        self._mem_phases: List[dict] = []
        # Counter baselines: every worker inherits the construction
        # phase's counts, so only lookup-phase deltas are reported.
        transport = system.transport
        self._events0 = self.engine.events_executed
        self._sent0 = transport.messages_sent
        self._delivered0 = transport.messages_delivered
        self._dropped0 = transport.messages_dropped
        transport._shard_capture = self._capture

    # ------------------------------------------------------------------
    def _capture(self, deliver_time: float, dst_address: int, msg) -> bool:
        dst_shard = self.owner[dst_address]
        if dst_shard == self.shard_index:
            return False
        self._outbox.append((deliver_time, dst_shard, dst_address, msg))
        return True

    def compact(self) -> int:
        """Replace non-owned peers with stubs; returns how many.

        Stubs keep exactly what the sender-side delay model reads
        (host, liveness, capacity) and crash on ``receive`` -- non-owned
        peers never execute handlers once the capture hook is in.

        The retired peer objects are *kept referenced*.  A forked worker
        shares the built system with its parent copy-on-write; freeing
        1-1/N of it would write every refcount, privatising the very
        pages the fork shared and growing physical memory by the amount
        "freed".  Retaining keeps those pages clean and shared, so N
        workers cost ~one system, not N.
        """
        peers = self.system.peers
        actors = self.system.transport._actors
        me = self.shard_index
        owner = self.owner
        retired: List[object] = []
        for addr, peer in list(peers.items()):
            if owner[addr] == me:
                continue
            stub = PeerStub(addr, peer.host, peer.alive, peer.capacity, peer.role)
            retired.append(peer)
            peers[addr] = stub
            if addr in actors:
                actors[addr] = stub
        self._retired = retired
        self._mem_phases.append({"phase": "compact", "vm_rss_kb": rss_kb()})
        return len(retired)

    # ------------------------------------------------------------------
    # Coordinator requests
    # ------------------------------------------------------------------
    def issue(self, time: float, lo: int, hi: int, fold_before: float) -> dict:
        """Start this shard's lookups of wave ``pairs[lo:hi]`` at ``time``."""
        self.registry.fold(fold_before)
        self.engine.pin_clock(time)
        owner = self.owner
        me = self.shard_index
        peers = self.system.peers
        pairs = self.pairs
        for i in range(lo, hi):
            origin, key = pairs[i]
            if owner[origin] != me:
                continue
            peer = peers[origin]
            if peer.alive:
                peer.lookup(key)
        return self._state()

    def window(self, w_end: float, inbox: Sequence[tuple]) -> dict:
        """Schedule inbound deliveries, run strictly below ``w_end``."""
        # Same heap entry Transport.send pushes for a local delivery.
        actor = self.system.transport.actor
        schedule_at = self.engine.schedule_at
        for time, dst, msg in inbox:
            schedule_at(time, actor(dst).receive, (msg,))
        self.engine.run_before(w_end)
        return self._state()

    def finish(self, cut_time: float) -> dict:
        """Trim metric overrun past ``cut_time``; export merge inputs."""
        registry = self.registry
        registry.trim(cut_time)
        transport = self.system.transport
        transport._shard_capture = None
        try:
            import resource
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        except Exception:  # pragma: no cover - non-POSIX
            peak_rss_kb = 0
        mem = memory_info()
        self._mem_phases.append(
            {"phase": "finish", "vm_rss_kb": mem["vm_rss_kb"]}
        )
        mem["phases"] = self._mem_phases
        return {
            "mem": mem,
            "records": registry.export_records(),
            "contacts": list(registry._contacts),
            "duplicates": list(registry._duplicates),
            "foreign_contacts": dict(registry.foreign_contacts),
            "foreign_duplicates": dict(registry.foreign_duplicates),
            "events": self.engine.events_executed - self._events0,
            "messages_sent": transport.messages_sent - self._sent0,
            "messages_delivered": transport.messages_delivered - self._delivered0,
            "messages_dropped": transport.messages_dropped - self._dropped0,
            "peak_rss_kb": peak_rss_kb,
        }

    def _state(self) -> dict:
        outbox = self._outbox
        self._outbox = []
        return {
            "next_time": self.engine.next_event_time(),
            "unresolved": self.registry.unresolved,
            "max_end": self.registry.max_end,
            "outbox": outbox,
        }


def serve_shm(endpoint: WorkerEndpoint, worker: ShardWorker) -> None:
    """Answer coordinator requests over shared-memory rings.

    Runs in the forked worker process until a ``stop`` frame.  Requests
    arrive as struct-packed control frames; ``window`` inboxes are
    drained straight out of the per-pair data rings (zero-copy decode,
    exact frame counts -- see
    :meth:`~repro.shard.ipc.WorkerEndpoint.drain_inbox`); the outbox of
    every reply is distributed to the outbound data rings before the
    state frame is published.  Worker errors travel back as ``K_ERR``
    frames so the coordinator re-raises with the worker's stack; a
    vanished coordinator surfaces as :class:`RingClosed` and ends the
    loop (the worker is an orphan at that point).  With
    ``REPRO_PROFILE=1`` the whole loop is profiled under the
    ``-shard<N>`` tag (one profile per worker process).
    """
    with maybe_profile(tag=f"-shard{worker.shard_index}"):
        try:
            while True:
                try:
                    request = endpoint.recv_request()
                except RingClosed:  # pragma: no cover - coordinator died
                    return
                op = request[0]
                if op == "stop":
                    return
                try:
                    if op == "issue":
                        endpoint.send_state(worker.issue(*request[1:]))
                    elif op == "window":
                        _, w_end, owed, spills = request
                        inbox = endpoint.drain_inbox(owed, spills)
                        endpoint.send_state(worker.window(w_end, inbox))
                    elif op == "finish":
                        payload = worker.finish(request[1])
                        payload["ipc"] = endpoint.counters()
                        endpoint.send_blob(payload)
                    else:
                        raise ValueError(f"unknown shard request {op!r}")
                except RingClosed:  # pragma: no cover - coordinator died
                    return
                except Exception:
                    endpoint.send_error(traceback.format_exc())
                    return
        finally:
            endpoint.close()
