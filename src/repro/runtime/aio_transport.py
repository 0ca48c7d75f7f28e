"""Asyncio TCP implementation of the overlay transport surface.

Where the simulator's :class:`~repro.overlay.transport.Transport`
delivers messages by scheduling engine events, :class:`AioTransport`
writes codec frames to per-peer TCP connections.  The protocol core is
oblivious to the difference: it calls ``send`` / ``send_many`` with an
overlay address, and here that address *is* the destination endpoint
(see :func:`~repro.runtime.codec.pack_endpoint`).

Design notes
------------
* **Per-peer connection pooling** -- one outbound connection per
  destination address, opened lazily on first send and reused until it
  fails or the transport closes.
* **Write coalescing** -- ``send`` only appends the frame to the
  destination's queue; a per-connection writer task drains the whole
  queue into a single ``write`` + ``drain``.  Bursts (floods, dumps)
  become one syscall instead of one per message.  ``bytes_sent`` (and
  the ``repro_wire_bytes_total{direction="tx"}`` counter) is bumped
  *after* the coalesced batch is written and drained, so it counts
  actual socket writes -- frames sitting in a queue, or dropped before
  the write, never inflate it.
* **Encode-once broadcast** -- ``send_many`` builds one frame and
  enqueues the same ``bytes`` object to every remote destination,
  mirroring the simulator's ``Transport.send_many``.  On a fanout-``k``
  flood the codec runs once, not ``k`` times.
* **Bounded queues with backpressure accounting** -- each destination
  queue holds at most ``max_queue`` frames.  When a burst outruns the
  socket, the *oldest* queued frame is dropped to admit the new one
  (newest frames carry the freshest protocol state) and
  ``repro_tx_backpressure_total{dest=...}`` is bumped; current depth
  across all queues is exported as the ``repro_tx_queue_depth`` gauge.
  Burst floods therefore degrade by shedding load instead of growing
  unbounded buffers.
* **Retry with exponential backoff** -- connects (and the frames queued
  behind them) are retried up to ``max_retries`` times with
  exponentially growing delays; connect and drain are both bounded by
  ``op_timeout``.  After the retries are exhausted the address is
  marked failed and subsequent sends drop, mirroring the simulator's
  drop-to-dead-peer behaviour (``is_reachable`` turns False, which is
  what the bootstrap server's crash arbitration keys off).
* **Loopback** -- sends to an actor registered on *this* transport
  bypass TCP and are dispatched via ``loop.call_soon``, preserving the
  simulator's semantics that a peer never talks to itself over the
  network in a blocking way.
"""

from __future__ import annotations

import asyncio
import logging
from collections import deque
from typing import Any, Deque, Dict, Iterable, Optional, Set, Tuple

from ..obs.registry import MetricsRegistry
from ..overlay.messages import Message
from ..overlay.transport import Actor, TransportBase
from .codec import MAX_FRAME, CodecError, MessageCodec, _LEN, format_endpoint, unpack_endpoint

__all__ = ["AioTransport", "frame_stream"]

logger = logging.getLogger("repro.runtime.transport")


async def frame_stream(reader: asyncio.StreamReader, initial: bytes = b""):
    """Yield every frame payload on ``reader`` as a :class:`memoryview`.

    The per-frame hot loop for inbound protocol connections.  Rather
    than awaiting the event loop twice per frame (length, then body),
    this reads the socket in large chunks and slices all complete
    frames out of each chunk -- under a flood burst the remote writer
    coalesces dozens of frames per segment, so this collapses dozens of
    awaits into one.  Yielded views alias the chunk buffer (``bytes``,
    so later buffer turnover cannot invalidate them); each is consumed
    by ``decode`` before the generator is advanced, making the whole rx
    path copy-free after the socket read.

    ``initial`` seeds the buffer with bytes already consumed from the
    stream (the daemon's HTTP-vs-frame sniff).  Ends on EOF; trailing
    bytes that do not form a complete frame are discarded.  A length
    prefix beyond :data:`MAX_FRAME` raises :class:`CodecError`.
    """
    buf = bytes(initial)
    pos = 0
    while True:
        n = len(buf)
        if n - pos >= _LEN.size:
            mv = memoryview(buf)
            while n - pos >= _LEN.size:
                (length,) = _LEN.unpack_from(buf, pos)
                if length > MAX_FRAME:
                    raise CodecError(f"incoming frame too large: {length} bytes")
                body_start = pos + _LEN.size
                if n - body_start < length:
                    break
                yield mv[body_start : body_start + length]
                pos = body_start + length
        try:
            chunk = await reader.read(_READ_CHUNK)
        except (OSError, ConnectionError):
            return
        if not chunk:
            return
        # One chunk-level concat per read; frames inside are sliced,
        # never copied.
        buf = buf[pos:] + chunk
        pos = 0


_READ_CHUNK = 256 * 1024


class _Conn:
    """Outbound connection state for one destination address."""

    __slots__ = ("queue", "wakeup", "task", "failed", "connects")

    def __init__(self) -> None:
        self.queue: Deque[bytes] = deque()
        self.wakeup = asyncio.Event()
        self.task: Optional[asyncio.Task] = None
        self.failed = False
        self.connects = 0  # successful connects (>1 means reconnects)


class AioTransport(TransportBase):
    """TCP transport speaking the :mod:`repro.runtime.codec` framing.

    Parameters
    ----------
    codec:
        Shared codec (must match the remote end's registration table).
    loop:
        Event loop to schedule on; defaults to the running loop.
    op_timeout:
        Seconds allowed for one connect attempt or one drain.
    max_retries:
        Connect attempts before a destination is declared unreachable.
    backoff_base:
        First retry delay in seconds; doubles per attempt (capped at 2s).
    max_queue:
        Outbound queue bound, in frames, per destination.  A burst
        beyond this sheds the *oldest* queued frame per new arrival
        (drop-oldest: newer frames carry fresher protocol state) and
        counts it as backpressure.
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry`.  When
        given, the transport feeds per-type tx frame counts, wire
        bytes (post-coalescing -- see module notes), the
        ``repro_tx_queue_depth`` gauge, and per-destination
        backpressure/drop/retry/reconnect counters into it (the node's
        ``/metrics`` endpoint exposes them).
    """

    def __init__(
        self,
        codec: MessageCodec,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        op_timeout: float = 5.0,
        max_retries: int = 4,
        backoff_base: float = 0.05,
        max_queue: int = 1024,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.codec = codec
        self.loop = loop if loop is not None else asyncio.get_event_loop()
        self.op_timeout = op_timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.max_queue = max_queue
        self.messages_sent = 0
        self.messages_delivered = 0  # counted by the receiving actor
        self.messages_dropped = 0
        self.bytes_sent = 0
        # Per-destination accounting, kept even without a registry so
        # drops are never invisible (the bool return of send() is
        # routinely ignored by fire-and-forget protocol code).
        self.dropped_by_dest: Dict[int, int] = {}
        self.retried_by_dest: Dict[int, int] = {}
        self.reconnects_by_dest: Dict[int, int] = {}
        self.backpressure_by_dest: Dict[int, int] = {}
        self._drop_warned: Set[int] = set()
        self._backpressure_warned: Set[int] = set()
        self._actors: Dict[int, Actor] = {}
        self._conns: Dict[int, _Conn] = {}
        self._closing = False
        self.registry = registry
        self._frames_fam = None
        self._tx_children: Dict[type, object] = {}
        self._wire_bytes_tx = None
        self._dropped_fam = None
        self._retried_fam = None
        self._reconnects_fam = None
        self._backpressure_fam = None
        if registry is not None:
            self._frames_fam = registry.counter(
                "repro_frames_total",
                "Protocol messages handled, by direction and message type",
                labelnames=("direction", "type"),
            )
            self._wire_bytes_tx = registry.counter(
                "repro_wire_bytes_total",
                "Wire payload bytes moved, by direction",
                labelnames=("direction",),
            ).labels("tx")
            self._dropped_fam = registry.counter(
                "repro_frames_dropped_total",
                "Frames dropped after connect retries were exhausted",
                labelnames=("dest",),
            )
            self._retried_fam = registry.counter(
                "repro_frames_retried_total",
                "Frames re-queued after a connection died mid-write",
                labelnames=("dest",),
            )
            self._reconnects_fam = registry.counter(
                "repro_transport_reconnects_total",
                "Successful re-connects to a previously connected destination",
                labelnames=("dest",),
            )
            self._backpressure_fam = registry.counter(
                "repro_tx_backpressure_total",
                "Oldest-frame drops forced by a full outbound queue",
                labelnames=("dest",),
            )
            registry.gauge(
                "repro_tx_queue_depth",
                "Frames currently queued for transmission, all destinations",
            ).set_function(self.tx_queue_depth)

    # ------------------------------------------------------------------
    # Registry (local actors on this transport)
    # ------------------------------------------------------------------
    def register(self, actor: Actor) -> None:
        if actor.address in self._actors:
            raise ValueError(f"address {actor.address} already registered")
        self._actors[actor.address] = actor

    def unregister(self, address: int) -> None:
        self._actors.pop(address, None)

    def actor(self, address: int) -> Optional[Actor]:
        return self._actors.get(address)

    def is_reachable(self, address: int) -> bool:
        """Best local knowledge: False only after retries were exhausted."""
        actor = self._actors.get(address)
        if actor is not None:
            return actor.alive
        conn = self._conns.get(address)
        return conn is None or not conn.failed

    # ------------------------------------------------------------------
    # Send surface (called synchronously by protocol code)
    # ------------------------------------------------------------------
    def send(self, src: Actor, dst_address: int, msg: Message) -> bool:
        if not src.alive or self._closing:
            return False
        msg.sender = src.address
        local = self._actors.get(dst_address)
        if local is not None:
            if not local.alive:
                self.messages_dropped += 1
                return False
            self.loop.call_soon(local.receive, msg)
            self.messages_sent += 1
            if self._frames_fam is not None:
                self._count_tx(type(msg))
            return True
        try:
            frame = self.codec.frame(msg)
        except CodecError:
            self.messages_dropped += 1
            raise
        if self._enqueue(dst_address, frame):
            if self._frames_fam is not None:
                self._count_tx(type(msg))
            return True
        return False

    def send_many(self, src: Actor, dst_addresses: Iterable[int], msg: Message) -> int:
        """Fan out one message; the frame is encoded exactly once."""
        if not src.alive or self._closing:
            return 0
        msg.sender = src.address
        frame: Optional[bytes] = None
        delivered = 0
        for dst in dst_addresses:
            local = self._actors.get(dst)
            if local is not None:
                if local.alive:
                    self.loop.call_soon(local.receive, msg)
                    self.messages_sent += 1
                    delivered += 1
                else:
                    self.messages_dropped += 1
                continue
            if frame is None:
                frame = self.codec.frame(msg)
            if self._enqueue(dst, frame):
                delivered += 1
        if delivered and self._frames_fam is not None:
            self._count_tx(type(msg), delivered)
        return delivered

    def _count_tx(self, msg_type: type, amount: int = 1) -> None:
        child = self._tx_children.get(msg_type)
        if child is None:
            child = self._frames_fam.labels("tx", msg_type.__name__)
            self._tx_children[msg_type] = child
        child.inc(amount)

    def _note_dropped(self, dst_address: int, count: int) -> None:
        """Account frames lost to an unreachable destination.

        Logged at WARNING exactly once per destination: a dead peer can
        eat thousands of flood frames and repeating the line per frame
        would drown the log without adding information.
        """
        if count <= 0:
            return
        self.messages_dropped += count
        total = self.dropped_by_dest.get(dst_address, 0) + count
        self.dropped_by_dest[dst_address] = total
        endpoint = format_endpoint(dst_address)
        if self._dropped_fam is not None:
            self._dropped_fam.labels(endpoint).inc(count)
        if dst_address not in self._drop_warned:
            self._drop_warned.add(dst_address)
            logger.warning(
                "dropping frames to unreachable %s after %d connect attempts "
                "(%d dropped so far; further drops to this destination are "
                "counted but not logged)",
                endpoint, self.max_retries, total,
            )

    def _enqueue(self, dst_address: int, frame: bytes) -> bool:
        conn = self._conns.get(dst_address)
        if conn is None:
            conn = _Conn()
            self._conns[dst_address] = conn
        if conn.failed:
            self._note_dropped(dst_address, 1)
            return False
        conn.queue.append(frame)
        if len(conn.queue) > self.max_queue:
            conn.queue.popleft()
            self._note_backpressure(dst_address, 1)
        conn.wakeup.set()
        if conn.task is None or conn.task.done():
            conn.task = self.loop.create_task(
                self._writer(dst_address, conn),
                name=f"aio-transport-writer-{dst_address}",
            )
        self.messages_sent += 1
        return True

    def tx_queue_depth(self) -> int:
        """Frames queued for transmission right now, across destinations."""
        return sum(len(conn.queue) for conn in self._conns.values())

    def connection_info(self) -> Dict[str, Dict[str, Any]]:
        """Per-destination transmit-side state, keyed by endpoint."""
        info: Dict[str, Dict[str, Any]] = {}
        for dst, conn in self._conns.items():
            info[format_endpoint(dst)] = {
                "queue_depth": len(conn.queue),
                "connects": conn.connects,
                "failed": conn.failed,
                "backpressure_drops": self.backpressure_by_dest.get(dst, 0),
            }
        return info

    def _note_backpressure(self, dst_address: int, count: int) -> None:
        """Account oldest-frame drops forced by a full outbound queue."""
        if count <= 0:
            return
        self.messages_dropped += count
        total = self.backpressure_by_dest.get(dst_address, 0) + count
        self.backpressure_by_dest[dst_address] = total
        endpoint = format_endpoint(dst_address)
        if self._backpressure_fam is not None:
            self._backpressure_fam.labels(endpoint).inc(count)
        if dst_address not in self._backpressure_warned:
            self._backpressure_warned.add(dst_address)
            logger.warning(
                "outbound queue to %s full (%d frames); dropping oldest "
                "(%d shed so far; further backpressure drops to this "
                "destination are counted but not logged)",
                endpoint, self.max_queue, total,
            )

    # ------------------------------------------------------------------
    # Writer task: one per live destination
    # ------------------------------------------------------------------
    async def _writer(self, dst_address: int, conn: _Conn) -> None:
        host, port = unpack_endpoint(dst_address)
        reader: Optional[asyncio.StreamReader] = None
        writer: Optional[asyncio.StreamWriter] = None
        try:
            while not self._closing:
                if not conn.queue:
                    conn.wakeup.clear()
                    await conn.wakeup.wait()
                    continue
                if writer is not None and reader is not None and reader.at_eof():
                    # Remote dropped the connection (FIN seen).  Protocol
                    # connections are one-way, so any EOF means dead --
                    # without this check the first write after the drop
                    # would be silently discarded by the remote's RST
                    # instead of raising.
                    self._abort(writer)
                    writer = None
                if writer is None or writer.is_closing():
                    reader, writer = await self._connect(dst_address, host, port, conn)
                    if writer is None:
                        return  # marked failed; queued frames dropped
                    conn.connects += 1
                    if conn.connects > 1:
                        self.reconnects_by_dest[dst_address] = (
                            self.reconnects_by_dest.get(dst_address, 0) + 1
                        )
                        if self._reconnects_fam is not None:
                            self._reconnects_fam.labels(
                                format_endpoint(dst_address)
                            ).inc()
                batch = list(conn.queue)
                conn.queue.clear()
                data = b"".join(batch)
                try:
                    writer.write(data)
                    await asyncio.wait_for(writer.drain(), self.op_timeout)
                    # Post-coalescing accounting: this is the size of
                    # the actual socket write that just drained, not
                    # the sum of frames ever enqueued.
                    self.bytes_sent += len(data)
                    if self._wire_bytes_tx is not None:
                        self._wire_bytes_tx.inc(len(data))
                except (OSError, asyncio.TimeoutError):
                    # Connection died mid-write: put the batch back and
                    # reconnect (frames may be duplicated at the far
                    # end, which the protocol tolerates -- dispatch is
                    # idempotent for every message type).  Sends may
                    # have landed behind the batch meanwhile, so
                    # re-bound the merged queue, oldest first.
                    conn.queue.extendleft(reversed(batch))
                    overflow = len(conn.queue) - self.max_queue
                    if overflow > 0:
                        for _ in range(overflow):
                            conn.queue.popleft()
                        self._note_backpressure(dst_address, overflow)
                    self.retried_by_dest[dst_address] = (
                        self.retried_by_dest.get(dst_address, 0) + len(batch)
                    )
                    if self._retried_fam is not None:
                        self._retried_fam.labels(format_endpoint(dst_address)).inc(
                            len(batch)
                        )
                    self._abort(writer)
                    writer = None
        finally:
            if writer is not None:
                self._abort(writer)

    async def _connect(
        self, dst_address: int, host: str, port: int, conn: _Conn
    ) -> Tuple[Optional[asyncio.StreamReader], Optional[asyncio.StreamWriter]]:
        delay = self.backoff_base
        for attempt in range(self.max_retries):
            if self._closing:
                return None, None
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(host, port), self.op_timeout
                )
                return reader, writer
            except (OSError, asyncio.TimeoutError):
                if attempt + 1 < self.max_retries:
                    await asyncio.sleep(delay)
                    delay = min(delay * 2, 2.0)
        conn.failed = True
        dropped = len(conn.queue)
        conn.queue.clear()
        self._note_dropped(dst_address, dropped)
        return None, None

    @staticmethod
    def _abort(writer: asyncio.StreamWriter) -> None:
        try:
            writer.transport.abort()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    async def aclose(self) -> None:
        """Stop all writer tasks and drop every pooled connection."""
        self._closing = True
        tasks = [c.task for c in self._conns.values() if c.task is not None]
        for conn in self._conns.values():
            conn.wakeup.set()
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self._conns.clear()
