"""A live peer node: one :class:`HybridPeer` behind an asyncio loop.

This is the daemon the ``repro node`` CLI verb runs.  It owns:

* a listening TCP socket (the peer's overlay address packs this
  endpoint, so anything that learns the address can reach the socket);
* a :class:`~repro.runtime.loop_engine.LoopEngine` adapting the
  protocol core's timer calls (HELLO periods, ack/suppress timeouts,
  lookup timers) onto ``loop.call_later``;
* an :class:`~repro.runtime.aio_transport.AioTransport` for outbound
  protocol frames;
* the inbound connections (``FrameConnection`` callbacks): protocol
  frames go straight to ``peer.receive``; client verbs
  (:mod:`repro.runtime.client`) are answered with a :class:`ClientReply`
  on the same connection -- each request in its own task, replies queued
  **as they resolve** (not in arrival order), correlated by request id.

The protocol object itself is the *unmodified* simulator class, composed
the same way (:func:`~repro.core.hybridpeer.peer_class`): a client
``put``/``get`` passes a completion callback to the peer's own
``store``/``lookup``, and :class:`RuntimePeer` only adds a join hook, so
every client waiter resolves on the event that completes it instead of
polling.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, List, Optional, Set

import numpy as np

from ..core.config import HybridConfig
from ..core.hybridpeer import HybridPeer, peer_class
from ..core.lookup import QueryRegistry
from ..obs.bridge import TraceBridge
from ..obs.prom import handle_http_request
from ..obs.registry import DEFAULT_CLIENT_LATENCY_MS_BUCKETS, MetricsRegistry
from ..overlay.idspace import IdSpace
from ..overlay.messages import Message
from ..replica import ReplicationMixin
from ..sim.trace import TraceBus
from ..swarm import SwarmMixin
from ..swarm import manifest as swarm_manifest
from .aio_transport import AioTransport, FrameConnection
from .client import (
    CLIENT_REQUEST_TYPES,
    ClientGet,
    ClientGetFile,
    ClientGetPiece,
    ClientPieceReply,
    ClientPut,
    ClientPutFile,
    ClientPutPiece,
    ClientReply,
    ClientStatus,
    runtime_codec,
)
from .codec import WIRE_VERSION, pack_endpoint
from .loop_engine import LoopEngine

__all__ = ["RuntimePeer", "NodeDaemon", "PeerNode"]

def _query_id_block(address: int) -> int:
    """Start of this node's disjoint query-id block.

    Flood dedup keys on ``(query_id, attempt)`` with no origin field,
    so live nodes must never reuse each other's query ids (the
    simulator's shared registry makes them globally unique for free).
    Each node claims a 2^32-id block whose index is a 30-bit mix of its
    packed endpoint, keeping every id inside the codec's signed 64-bit
    int while making cross-node collisions require a 30-bit hash
    collision instead of being guaranteed.
    """
    h = (address * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    h ^= h >> 32
    return (h & 0x3FFFFFFF) << 32


def _tracker_holders(peer: HybridPeer) -> int:
    tracker = peer._touched("swarm_tracker")  # never created unless swarming
    return tracker.holder_count() if tracker is not None else 0


class RuntimePeer(HybridPeer):
    """HybridPeer with ``join_callbacks``: fired (once each, then
    cleared) the instant the join handshake completes, so the daemon's
    :meth:`PeerNode.join` resolves on the completing message instead of
    polling ``joined`` on a timer.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.join_callbacks: List[Callable[[], None]] = []

    def _complete_join(self) -> None:
        super()._complete_join()
        callbacks, self.join_callbacks = self.join_callbacks, []
        for callback in callbacks:
            callback()

    def unhandled(self, msg: Message) -> None:
        """A message for a feature this node runs without: counted, dropped."""
        registry = self.transport.registry
        if registry is not None:
            registry.counter(
                "repro_inbound_rejected_total",
                "Inbound frames refused: oversized, undecodable or foreign", ("reason",),
            ).labels("unhandled").inc()


class NodeDaemon:
    """Shared asyncio scaffolding for live peers and the bootstrap server.

    Subclasses create their protocol actor in :meth:`_make_actor` (the
    listen endpoint is known by then) and may override
    :meth:`handle_client` for the verbs they answer.
    """

    def __init__(
        self,
        host: str,
        port: int,
        config: HybridConfig,
        seed: int = 0,
    ) -> None:
        self.host = host
        self.port = port
        self.config = config
        self.seed = seed
        self.codec = runtime_codec()
        # Observability: every daemon carries its own registry; the
        # trace bus + bridge replay the protocol core's trace emissions
        # (lookup spans, hop timings, stores) into the same metric
        # names the simulator produces, so a live scrape and a sim run
        # are directly comparable.
        self.registry = MetricsRegistry()
        self.trace = TraceBus()
        self.bridge = TraceBridge(self.trace, self.registry)
        self.engine: Optional[LoopEngine] = None
        self.transport: Optional[AioTransport] = None
        self.actor: Any = None
        self.address = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started_at: Optional[float] = None
        self._server: Optional[asyncio.base_events.Server] = None
        # rx frame counting (per decoded message type), child-cached.
        self._rx_children: Dict[type, Any] = {}
        self._rx_frames_fam = self.registry.counter(
            "repro_frames_total",
            "Protocol messages handled, by direction and message type",
            labelnames=("direction", "type"),
        )
        self._rx_bytes = self.registry.counter(
            "repro_wire_bytes_total",
            "Wire payload bytes moved, by direction",
            labelnames=("direction",),
        ).labels("rx")
        # Inbound connections (open as long as the remote's pool wants),
        # each mapped to its client requests still resolving -- a task
        # per request, so one slow lookup never blocks those pipelined
        # behind it; tracked so stop() can reap them all.
        self._inbound: Dict[FrameConnection, Set[asyncio.Task]] = {}
        self.reject_warned: Set[str] = set()
        self._client_inflight = 0
        self._client_latency_fam = self.registry.histogram(
            "repro_client_op_latency_ms",
            "Client verb service time (request decoded -> reply written)",
            buckets=DEFAULT_CLIENT_LATENCY_MS_BUCKETS,
            labelnames=("verb",),
        )
        self._client_latency_children: Dict[type, Any] = {}
        self.registry.gauge(
            "repro_client_inflight_ops",
            "Client verbs accepted but not yet answered",
        ).set_function(lambda: float(self._client_inflight))

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket and bring the protocol actor up."""
        loop = self._loop = asyncio.get_running_loop()
        self._server = await loop.create_server(self._accept, self.host, self.port)
        if self.port == 0:  # ephemeral: learn what the kernel picked
            self.port = self._server.sockets[0].getsockname()[1]
        self.address = pack_endpoint(self.host, self.port)
        self._started_at = loop.time()
        self.engine = LoopEngine(loop)
        self.transport = AioTransport(self.codec, loop, registry=self.registry)
        self.actor = self._make_actor()
        self.transport.register(self.actor)
        self._register_gauges()

    def _make_actor(self) -> Any:
        raise NotImplementedError

    def _register_gauges(self) -> None:
        """Function-backed gauges read lazily at scrape time only."""
        self.registry.gauge(
            "repro_uptime_seconds", "Seconds since this daemon started"
        ).set_function(self.uptime)

    def uptime(self) -> float:
        """Seconds since start() bound the listening socket (0 before)."""
        if self._loop is None or self._started_at is None:
            return 0.0
        return self._loop.time() - self._started_at

    async def stop(self) -> None:
        """Tear down: listener, inbound conns, timers, outbound pool."""
        inbound, self._inbound = self._inbound, {}
        if self._server is not None:
            self._server.close()
            for conn in inbound:
                conn.abort()
            # Since 3.12 wait_closed() waits for the aborted connections;
            # before, one loop turn closes them.  Either way none is open
            # once stop() returns, so no peer writes into a dying socket.
            await self._server.wait_closed()
            await asyncio.sleep(0)
            self._server = None
        if self.actor is not None:
            self.actor.alive = False
        if self.engine is not None:
            self.engine.close()
        if self.transport is not None:
            await self.transport.aclose()
        # Client ops still resolving (their connections just died):
        # cancel and await so teardown leaves no dangling tasks.
        tasks = [task for replies in inbound.values() for task in replies]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    # ------------------------------------------------------------------
    # Inbound (FrameConnection owner)
    # ------------------------------------------------------------------
    def _accept(self) -> FrameConnection:
        conn = FrameConnection(
            self, self._loop, self.transport.op_timeout,
            http=lambda line: handle_http_request(line, self.registry, self.health_snapshot),
        )
        self._inbound[conn] = set()
        return conn

    def frame_received(self, conn: FrameConnection, msg: Message, nbytes: int) -> None:
        self._count_rx(type(msg), nbytes)
        if isinstance(msg, CLIENT_REQUEST_TYPES):
            # Pipelining: each request resolves in its own task, so
            # replies may leave out of order (request ids correlate them).
            replies = self._inbound[conn]
            task = self._loop.create_task(self._answer_client(msg, conn))
            replies.add(task)
            task.add_done_callback(replies.discard)
        else:
            self.actor.receive(msg)  # a dead actor counts the drop

    def connection_closed(self, conn: FrameConnection, exc: Optional[BaseException]) -> None:
        # An abandoned request must not leak its task.
        for task in self._inbound.pop(conn, ()):
            task.cancel()

    async def _answer_client(self, msg: Message, conn: FrameConnection) -> None:
        """Resolve one client verb and queue its correlated reply."""
        loop = self._loop
        t0 = loop.time()
        self._client_inflight += 1
        try:
            try:
                reply = await self.handle_client(msg)
            except asyncio.CancelledError:
                raise  # connection died while we were resolving
            except Exception as exc:  # a handler bug answers, not kills
                reply = ClientReply(ok=False, error=f"internal error: {exc!r}")
            reply.request_id = msg.request_id
            self._observe_client_latency(type(msg), (loop.time() - t0) * 1e3)
            conn.send(self.codec.frame(reply))
        finally:
            self._client_inflight -= 1

    def _observe_client_latency(self, verb_type: type, ms: float) -> None:
        child = self._client_latency_children.get(verb_type)
        if child is None:
            verb = verb_type.__name__.removeprefix("Client").lower()
            child = self._client_latency_fam.labels(verb)
            self._client_latency_children[verb_type] = child
        child.observe(ms)

    def _count_rx(self, msg_type: type, nbytes: int) -> None:
        child = self._rx_children.get(msg_type)
        if child is None:
            child = self._rx_frames_fam.labels("rx", msg_type.__name__)
            self._rx_children[msg_type] = child
        child.inc()
        self._rx_bytes.inc(nbytes)

    def health_snapshot(self) -> Dict[str, Any]:
        """The ``/healthz`` body; subclasses add role-specific liveness."""
        return {
            "ok": True,
            "endpoint": f"{self.host}:{self.port}",
            "uptime_s": round(self.uptime(), 3),
            "codec_version": WIRE_VERSION,
        }

    def codec_snapshot(self) -> Dict[str, Any]:
        """Codec state for the status verb: the wire version and the
        transmit side per destination."""
        snapshot: Dict[str, Any] = {"version": WIRE_VERSION}
        if self.transport is not None:
            snapshot["tx_connections"] = self.transport.connection_info()
        return snapshot

    async def handle_client(self, msg: Message) -> ClientReply:
        return ClientReply(ok=False, error=f"unsupported verb {type(msg).__name__}")


class PeerNode(NodeDaemon):
    """Daemon hosting one :class:`RuntimePeer`.

    ``config.server_address`` must be the packed endpoint of a running
    bootstrap daemon (:class:`~repro.runtime.bootstrap.BootstrapNode`).
    """

    def __init__(
        self,
        host: str,
        port: int,
        config: HybridConfig,
        seed: int = 0,
        capacity: float = 1.0,
        interest: Optional[str] = None,
    ) -> None:
        super().__init__(host, port, config, seed)
        self.capacity = capacity
        self.interest = interest
        self.queries = QueryRegistry()
        # put-file staging: content hash -> piece index -> raw bytes,
        # held between ClientPutPiece uploads and the ClientPutFile
        # commit that verifies them.  Bounded: when a new content shows
        # up with the table full, the oldest staging entry is dropped
        # (its uploader will get a "missing pieces" error on commit).
        self._swarm_staging: Dict[str, Dict[int, bytes]] = {}
        self._swarm_staging_max = 16

    def _make_actor(self) -> RuntimePeer:
        # The listen address is final here (ephemeral port resolved by
        # start()), so the registry can claim this node's id block.
        self.queries.rebase(_query_id_block(self.address))
        return peer_class(self.config, RuntimePeer)(
            address=self.address,
            host=0,
            engine=self.engine,
            transport=self.transport,
            idspace=IdSpace(),
            config=self.config,
            rng=np.random.default_rng(self.seed),
            queries=self.queries,
            capacity=self.capacity,
            interest=self.interest,
            trace=self.trace,
        )

    def _register_gauges(self) -> None:
        super()._register_gauges()
        peer = self.peer
        self.registry.gauge(
            "repro_node_joined", "1 once the join handshake completed"
        ).set_function(lambda: 1.0 if peer.joined else 0.0)
        self.registry.gauge(
            "repro_keys_stored", "Data items in this peer's local database"
        ).set_function(lambda: float(len(peer.database)))
        self.registry.gauge(
            "repro_replica_keys",
            "Replica copies this peer holds for other segments",
        ).set_function(lambda: float(len(peer._touched("replicas") or ())))
        self.registry.gauge(
            "repro_swarm_holders",
            "Distinct holders registered with this peer's swarm tracker",
        ).set_function(lambda: float(_tracker_holders(peer)))

    @property
    def peer(self) -> RuntimePeer:
        return self.actor

    # ------------------------------------------------------------------
    async def join(self, timeout: float = 30.0) -> None:
        """Contact the bootstrap server and wait for the join handshake.

        Resolution is event-driven: the peer fires its join callbacks
        the instant the handshake-completing message is processed, so
        this returns microseconds after the protocol finishes instead
        of on the next tick of a polling loop.
        """
        if self.peer.joined:
            return
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self.peer.join_callbacks.append(
            lambda: future.done() or future.set_result(None)
        )
        self.peer.begin_join()
        try:
            await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            raise TimeoutError(
                f"{self.host}:{self.port} did not join within {timeout}s"
            ) from None

    # ------------------------------------------------------------------
    async def handle_client(self, msg: Message) -> ClientReply:
        if isinstance(msg, ClientPut):
            return await self._do_put(msg)
        if isinstance(msg, ClientGet):
            return await self._do_get(msg)
        if isinstance(msg, ClientStatus):
            payload = self.status_snapshot()
            if msg.include_metrics:
                payload["metrics"] = self.registry.snapshot()
            return ClientReply(ok=True, payload=payload)
        if isinstance(msg, ClientPutPiece):
            return self._do_put_piece(msg)
        if isinstance(msg, ClientPutFile):
            return await self._do_put_file(msg)
        if isinstance(msg, ClientGetFile):
            return await self._do_get_file(msg)
        if isinstance(msg, ClientGetPiece):
            return self._do_get_piece(msg)
        return await super().handle_client(msg)

    #: Wait budget for the k == 1 landed ack: the store travels at most
    #: a handful of ring/spread hops, so this bounds loss, not load.
    PUT_LANDED_WAIT_S = 10.0

    async def _do_put(self, msg: ClientPut) -> ClientReply:
        """Acknowledge a put only once the write's verdict is in.

        At k == 1 that is the single copy landing at its holder (acking
        on send would lose the write if the holder died with the store
        in flight).  At k > 1 it is the owning t-peer reporting
        ``write_quorum`` copies -- the zero-lost-acknowledged-writes
        contract.  A silent wait is retried once: re-sending is
        idempotent (same d_id, same routing, insert overwrites) and
        covers the failover window while a successor assumes the
        segment.
        """
        if not self.peer.joined:
            return ClientReply(ok=False, error="node has not joined yet")
        cfg = self.config
        replicated = isinstance(self.peer, ReplicationMixin)
        if replicated:
            # Owner-side retry budget plus routing/failover slack, in s.
            wait_s = (
                cfg.replica_ack_timeout * (cfg.replica_write_retries + 1)
                + 2.0 * cfg.replica_ack_timeout
            ) / 1000.0
        else:
            wait_s = self.PUT_LANDED_WAIT_S
        loop = asyncio.get_running_loop()
        for _attempt in range(2):
            future: asyncio.Future = loop.create_future()

            def _verdict(committed: bool, latency_ms: float, fut=future) -> None:
                if not fut.done():
                    fut.set_result((committed, latency_ms))

            d_id = self.peer.store(msg.key, msg.value, on_verdict=_verdict)
            try:
                committed, latency_ms = await asyncio.wait_for(future, wait_s)
            except asyncio.TimeoutError:
                self.peer.cancel_write_watch(_verdict)
                error = f"no write verdict within {wait_s:.1f}s"
                continue
            if committed:
                payload: Dict[str, Any] = {"key": msg.key, "d_id": d_id}
                if replicated:
                    payload["replicated"] = True
                    payload["quorum"] = cfg.write_quorum
                payload["latency_ms"] = round(latency_ms, 3)
                return ClientReply(ok=True, payload=payload)
            error = "quorum not reached"
        return ClientReply(ok=False, error=f"put {msg.key!r}: {error}")

    async def _do_get(self, msg: ClientGet) -> ClientReply:
        if not self.peer.joined:
            return ClientReply(ok=False, error="node has not joined yet")
        # The lookup's completion callback resolves the future inside
        # the message/timer handler that ended it (or before lookup()
        # returns, on a local hit); the protocol's lookup_timeout plus
        # reflood budget bounds the wait.
        future: asyncio.Future = asyncio.get_running_loop().create_future()

        def _done(found: bool, value: Any, holder: int) -> None:
            if not future.done():
                future.set_result((found, value, holder))

        self.peer.lookup(msg.key, _done)
        found, value, holder = await future
        if not self.queries.unresolved:
            self.queries.reset()  # records stay bounded by lookups in flight
        if not found:
            return ClientReply(ok=False, error=f"lookup failed for {msg.key!r}")
        return ClientReply(
            ok=True, payload={"key": msg.key, "value": value, "holder": holder}
        )

    # ------------------------------------------------------------------
    # Bulk transfer (repro.swarm)
    # ------------------------------------------------------------------
    def _swarm_gate(self) -> Optional[ClientReply]:
        if not isinstance(self.peer, SwarmMixin):
            return ClientReply(
                ok=False,
                error="swarm mode is disabled (start the node with "
                "--set snetwork_style=bittorrent)",
            )
        if not self.peer.joined:
            return ClientReply(ok=False, error="node has not joined yet")
        return None

    def _do_put_piece(self, msg: ClientPutPiece) -> ClientReply:
        refused = self._swarm_gate()
        if refused is not None:
            return refused
        staged = self._swarm_staging.get(msg.content)
        if staged is None:
            while len(self._swarm_staging) >= self._swarm_staging_max:
                self._swarm_staging.pop(next(iter(self._swarm_staging)))
            staged = self._swarm_staging[msg.content] = {}
        staged[msg.index] = msg.data
        return ClientReply(
            ok=True,
            payload={"content": msg.content, "index": msg.index,
                     "staged": len(staged)},
        )

    async def _do_put_file(self, msg: ClientPutFile) -> ClientReply:
        """Commit staged pieces: verify every hash, store, seed, track."""
        refused = self._swarm_gate()
        if refused is not None:
            return refused
        manifest = {
            swarm_manifest.MANIFEST_MARKER: 1,
            "content": msg.content,
            "length": msg.length,
            "piece_size": msg.piece_size,
            "pieces": list(msg.pieces),
        }
        staged = self._swarm_staging.pop(msg.content, {})
        missing = [i for i in range(len(msg.pieces)) if i not in staged]
        if missing:
            return ClientReply(
                ok=False,
                error=f"put-file {msg.key!r}: missing staged pieces {missing[:8]}",
            )
        bad = [
            i for i in range(len(msg.pieces))
            if not swarm_manifest.verify_piece(manifest, i, staged[i])
        ]
        if bad:
            return ClientReply(
                ok=False,
                error=f"put-file {msg.key!r}: piece hash mismatch at {bad[:8]}",
            )
        # The manifest is the stored value: it rides the ordinary put
        # path, so replication/quorum semantics apply to it unchanged.
        reply = await self._do_put(ClientPut(key=msg.key, value=manifest))
        if not reply.ok:
            return reply
        self.peer.swarm_seed(manifest, staged)
        payload = dict(reply.payload or {})
        payload.update(
            {"content": msg.content, "pieces": len(msg.pieces),
             "length": msg.length}
        )
        return ClientReply(ok=True, payload=payload)

    async def _do_get_file(self, msg: ClientGetFile) -> ClientReply:
        """Resolve the manifest, swarm-fetch the pieces, report counters.

        The content itself is not folded into this reply: the client
        pulls the pieces with :class:`ClientGetPiece` (raw-bytes reply
        frames) and verifies them locally -- chunked transfer instead
        of one giant JSON payload.
        """
        refused = self._swarm_gate()
        if refused is not None:
            return refused
        lookup = await self._do_get(ClientGet(key=msg.key))
        if not lookup.ok:
            return lookup
        manifest = lookup.payload.get("value")
        if not swarm_manifest.is_manifest(manifest):
            return ClientReply(
                ok=False,
                error=f"{msg.key!r} is not chunked content (no swarm manifest)",
            )
        content = manifest["content"]
        n_pieces = len(manifest["pieces"])
        local = self.peer.swarm_pieces.get(content, {})
        if len(local) < n_pieces:
            loop = asyncio.get_running_loop()
            future: asyncio.Future = loop.create_future()

            def _done(data: Optional[bytes], info: Dict[str, Any],
                      fut=future) -> None:
                if not fut.done():
                    fut.set_result((data, info))

            self.peer.swarm_fetch(manifest, _done)
            # Budget: enough ticks for several announce/retry rounds.
            wait_s = 10.0 * self.config.swarm_request_timeout / 1000.0 + 5.0
            try:
                data, info = await asyncio.wait_for(future, wait_s)
            except asyncio.TimeoutError:
                return ClientReply(
                    ok=False,
                    error=f"swarm fetch of {msg.key!r} incomplete after "
                    f"{wait_s:.0f}s "
                    f"({len(self.peer.swarm_pieces.get(content, {}))}"
                    f"/{n_pieces} pieces)",
                )
            if data is None:
                return ClientReply(
                    ok=False,
                    error=f"swarm fetch of {msg.key!r} failed integrity "
                    f"verification ({info.get('integrity_failures')} failures)",
                )
            fetch_info = info
        else:
            fetch_info = {"pieces": n_pieces, "duration_ms": 0.0,
                          "integrity_failures": 0}
        return ClientReply(
            ok=True,
            payload={
                "key": msg.key,
                "manifest": manifest,
                "pieces": n_pieces,
                "duration_ms": round(float(fetch_info.get("duration_ms", 0.0)), 3),
                "integrity_failures": int(fetch_info.get("integrity_failures", 0)),
            },
        )

    def _do_get_piece(self, msg: ClientGetPiece) -> ClientReply:
        refused = self._swarm_gate()
        if refused is not None:
            return refused
        data = self.peer.swarm_pieces.get(msg.content, {}).get(msg.index)
        if data is None:
            return ClientReply(
                ok=False,
                error=f"piece {msg.index} of {msg.content[:12]} not held here",
            )
        return ClientPieceReply(
            ok=True,
            payload={"content": msg.content, "index": msg.index},
            data=data,
        )

    # ------------------------------------------------------------------
    def status_snapshot(self) -> Dict[str, Any]:
        p = self.peer
        return {
            "endpoint": f"{self.host}:{self.port}",
            "address": self.address,
            "role": p.role,
            "joined": p.joined,
            "p_id": p.p_id,
            "predecessor": p.predecessor,
            "successor": p.successor,
            "keys_stored": len(p.database),
            "replica_keys": len(p._touched("replicas") or ()),
            "swarm": {
                "enabled": isinstance(p, SwarmMixin),
                "contents_held": len(p._touched("swarm_pieces") or ()),
                "contents_tracked": len(p._touched("swarm_tracker") or ()),
                "tracker_holders": _tracker_holders(p),
                "integrity_failures": getattr(p, "swarm_integrity_failures", 0),
            },
            "messages_received": p.messages_received,
            "uptime_s": round(self.uptime(), 3),
            "codec_version": WIRE_VERSION,
            "codec": self.codec_snapshot(),
        }

    def health_snapshot(self) -> Dict[str, Any]:
        health = super().health_snapshot()
        health["role"] = self.peer.role
        health["joined"] = self.peer.joined
        return health
