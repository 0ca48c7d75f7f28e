"""Asyncio TCP implementation of the overlay transport surface.

Where the simulator's :class:`~repro.overlay.transport.Transport`
delivers messages by scheduling engine events, :class:`AioTransport`
writes codec frames to per-peer TCP connections.  The protocol core is
oblivious to the difference: it calls ``send`` / ``send_many`` with an
overlay address, and here that address *is* the destination endpoint
(see :func:`~repro.runtime.codec.pack_endpoint`).

Design notes
------------
* **One framed connection, on callbacks** -- :class:`FrameConnection`
  is the ``asyncio.Protocol`` behind every live TCP connection: this
  transport's peer links, a daemon's inbound connections and a client's
  connection.  No task reads or writes: ``data_received`` slices every
  complete frame out of the buffer and dispatches it in the callback.
* **Write coalescing** -- ``send`` appends the frame to the
  connection's queue; one ``loop.call_soon`` per loop turn hands the
  whole queue to the socket transport in one ``write``, so bursts
  (floods, dumps, pipelined client replies) cost one syscall.
  ``bytes_sent`` and ``repro_wire_bytes_total{direction="tx"}`` count
  each coalesced batch as it is handed over; queued or evicted frames
  never count.
* **Flow control** -- ``pause_writing`` holds the flushes and starts an
  ``op_timeout`` stall timer; ``resume_writing`` cancels it.  A link
  still paused when it fires is aborted.
* **Encode-once broadcast** -- ``send_many`` enqueues the same frame
  ``bytes`` to every remote destination.
* **Bounded queues** -- a destination queue holds at most ``max_queue``
  frames; beyond that the *oldest* is evicted (newest frames carry the
  freshest protocol state) and counted in
  ``repro_tx_backpressure_total{dest=...}``.  ``repro_tx_queue_depth``
  is the current depth over all queues.
* **Reconnect with exponential backoff** -- a peer link outlives its
  sockets.  When one dies, the frames its socket transport may not have
  sent go back to the head of the queue (``repro_frames_retried_total``;
  handlers tolerate duplicates), and while frames wait a connect
  coroutine -- the only one here, alive only while the link is down --
  makes ``max_retries`` attempts with doubling delays, each bounded by
  ``op_timeout``.  Then the address is marked failed and later sends
  drop (``is_reachable`` turns False, which the bootstrap server's crash
  arbitration keys off).  Links are one-way, so a FIN ends one and the
  next send reconnects.
* **Accounting as in the simulator** -- ``messages_sent`` counts every
  attempt and ``messages_dropped`` those that never reached a live
  actor (dead source or destination, unreachable, evicted, queued at
  close); the receiving actor counts ``messages_delivered``.
* **Loud rejects** -- an oversized or undecodable inbound frame ends its
  connection; those and frames of the wrong kind count in
  ``repro_inbound_rejected_total{reason}``, one WARNING per endpoint.
* **Loopback** -- sends to an actor registered on *this* transport
  bypass TCP through ``loop.call_soon``.
"""

from __future__ import annotations

import asyncio
import logging
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, Optional, Set

from ..obs.registry import MetricsRegistry
from ..overlay.messages import Message
from ..overlay.transport import Actor, TransportBase
from .codec import MAX_FRAME, CodecError, MessageCodec, _LEN, format_endpoint, unpack_endpoint

__all__ = ["AioTransport", "FrameConnection"]

logger = logging.getLogger("repro.runtime.transport")

# An inbound connection is sniffed by its first 4 bytes: these prefixes
# mean a plain-text HTTP request (scraper hitting /metrics or /healthz);
# anything else is a big-endian frame length.  No protocol frame can
# alias them -- as a length either would exceed MAX_FRAME by ~100x.
_HTTP_PREFIXES = (b"GET ", b"HEAD")

# Bound on the HTTP request head we are willing to buffer.
_MAX_HTTP_HEAD = 8192


class FrameConnection(asyncio.Protocol):
    """One TCP connection carrying length-prefixed codec frames.

    ``owner`` supplies ``codec``, ``registry`` and ``reject_warned`` and
    two hooks: ``frame_received(conn, msg, nbytes)`` for every decoded
    frame and ``connection_closed(conn, exc)`` when the socket is gone.
    With ``http`` set, the first 4 bytes are sniffed: an HTTP request
    gets ``http(request_line)`` written back, then the connection closes.
    """

    def __init__(self, owner: Any, loop: asyncio.AbstractEventLoop, op_timeout: float,
                 http: Optional[Callable[[str], bytes]] = None) -> None:
        self.owner = owner
        self.loop = loop
        self.op_timeout = op_timeout
        self.http = http
        self.transport: Optional[asyncio.Transport] = None
        self.queue: Deque[bytes] = deque()
        # Frames handed over that may still sit in the socket transport's
        # buffer, oldest first, and their bytes: what a dead link resends.
        self.unflushed: Deque[bytes] = deque()
        self.unflushed_bytes = 0
        self.buf = b""
        self.paused = False
        self.flushing: Optional[asyncio.Handle] = None
        self.stall: Optional[asyncio.TimerHandle] = None
        self.error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # Send side
    # ------------------------------------------------------------------
    def send(self, frame: bytes) -> None:
        """Queue one frame; the socket write happens once per loop turn."""
        self.queue.append(frame)
        self._kick()

    def _kick(self) -> None:
        if self.flushing is None and self.transport is not None and not self.paused:
            self.flushing = self.loop.call_soon(self._flush)

    def _flush(self) -> int:
        """Hand the whole queue to the socket transport in one write."""
        self.flushing = None
        transport, queue = self.transport, self.queue
        if transport is None or transport.is_closing() or self.paused or not queue:
            return 0
        data = b"".join(queue)
        transport.write(data)
        # The socket transport holds the newest ``held`` bytes written;
        # a write that failed (peer reset) leaves all of them unsent.
        held = (self.unflushed_bytes + len(data) if transport.is_closing()
                else transport.get_write_buffer_size())
        unflushed = self.unflushed
        if held:
            unflushed.extend(queue)
            self.unflushed_bytes += len(data)
            while self.unflushed_bytes - len(unflushed[0]) >= held:
                self.unflushed_bytes -= len(unflushed.popleft())
        elif unflushed:
            unflushed.clear()
            self.unflushed_bytes = 0
        queue.clear()
        return len(data)

    def abort(self) -> None:
        if self.transport is not None:
            self.transport.abort()

    def reject(self, reason: str, exc: Optional[CodecError] = None) -> None:
        """Count one refused inbound frame; with ``exc``, end the connection."""
        owner = self.owner
        if owner.registry is not None:
            owner.registry.counter(
                "repro_inbound_rejected_total",
                "Inbound frames refused: oversized, undecodable or foreign", ("reason",),
            ).labels(reason).inc()
        peer = self.transport.get_extra_info("peername") if self.transport else None
        endpoint = f"{peer[0]}:{peer[1]}" if peer else "?"
        if endpoint not in owner.reject_warned:
            owner.reject_warned.add(endpoint)
            logger.warning("rejected %s frame from %s (further rejects from this endpoint "
                           "are counted but not logged)", reason, endpoint)
        if exc is not None:
            self.error = exc
            self.abort()

    # ------------------------------------------------------------------
    # asyncio.Protocol callbacks
    # ------------------------------------------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        if self.queue:  # frames queued while the link was down
            self._kick()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.transport = None
        self.buf = b""
        self.resume_writing()  # drop a pause and its stall timer
        error, self.error = self.error, None
        self.owner.connection_closed(self, error or exc)

    def pause_writing(self) -> None:
        self.paused = True
        self.stall = self.loop.call_later(self.op_timeout, self.abort)

    def resume_writing(self) -> None:
        self.paused = False
        if self.stall is not None:
            self.stall.cancel()
            self.stall = None
        self._kick()

    def eof_received(self) -> None:
        # An HTTP client may half-close after its request; everything
        # else (links are one-way) just ends: returning None closes.
        if self.http is not None and self.buf[:4] in _HTTP_PREFIXES:
            self._answer_http()

    def data_received(self, data: bytes) -> None:
        buf = self.buf + data if self.buf else data
        if self.http is not None and self._sniffing(buf):
            return
        owner = self.owner
        view = memoryview(buf)
        n = len(buf)
        pos = 0
        while n - pos >= 4:
            (length,) = _LEN.unpack_from(buf, pos)
            if length > MAX_FRAME:
                self.reject("oversized", CodecError(f"incoming frame too large: {length} bytes"))
                return
            end = pos + 4 + length
            if end > n:
                break
            try:
                msg = owner.codec.decode(view[pos + 4 : end])
            except CodecError as exc:
                self.reject("undecodable", exc)
                return
            owner.frame_received(self, msg, end - pos)
            pos = end
        self.buf = buf[pos:]

    def _sniffing(self, buf: bytes) -> bool:
        """True while ``buf`` is an HTTP request (or too short to tell)."""
        if len(buf) >= 4 and buf[:4] not in _HTTP_PREFIXES:
            self.http = None  # a frame stream: sniffed once, for good
            return False
        self.buf = buf
        if len(buf) >= 4 and (b"\r\n\r\n" in buf or len(buf) >= _MAX_HTTP_HEAD):
            self._answer_http()
        return True

    def _answer_http(self) -> None:
        request_line = self.buf.split(b"\r\n", 1)[0].decode("latin-1", "replace")
        self.buf = b""
        self.transport.write(self.http(request_line))
        self.transport.close()


class _PeerLink(FrameConnection):
    """The outbound link to one destination; it outlives its sockets."""

    def __init__(self, owner: "AioTransport", address: int) -> None:
        super().__init__(owner, owner.loop, owner.op_timeout)
        self.address = address
        self.failed = False
        self.connects = 0  # successful connects (>1 means reconnects)
        self.dialing: Optional[asyncio.Task] = None

    def _flush(self) -> int:
        nbytes = super()._flush()
        if nbytes:
            owner = self.owner
            owner.bytes_sent += nbytes
            if owner._wire_bytes_tx is not None:
                owner._wire_bytes_tx.inc(nbytes)
        return nbytes


class AioTransport(TransportBase):
    """TCP transport speaking the :mod:`repro.runtime.codec` framing.

    Parameters
    ----------
    codec:
        Shared codec (must match the remote end's registration table).
    loop:
        Event loop to schedule on; defaults to the running loop.
    op_timeout:
        Seconds allowed for one connect attempt, or for a link to stay
        paused by the socket's flow control before it is aborted.
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
        self.reject_warned: Set[str] = set()
        self._actors: Dict[int, Actor] = {}
        self._conns: Dict[int, _PeerLink] = {}
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
            dest = ("dest",)
            self._dropped_fam = registry.counter(
                "repro_frames_dropped_total",
                "Frames dropped after connect retries were exhausted", dest)
            self._retried_fam = registry.counter(
                "repro_frames_retried_total",
                "Frames re-queued after a connection died mid-write", dest)
            self._reconnects_fam = registry.counter(
                "repro_transport_reconnects_total",
                "Successful re-connects to a previously connected destination", dest)
            self._backpressure_fam = registry.counter(
                "repro_tx_backpressure_total",
                "Oldest-frame drops forced by a full outbound queue", dest)
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
        self.messages_sent += 1
        if not src.alive or self._closing:
            self.messages_dropped += 1
            return False
        msg.sender = src.address
        local = self._actors.get(dst_address)
        if local is not None:
            if not local.alive:
                self.messages_dropped += 1
                return False
            self.loop.call_soon(local.receive, msg)
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
            attempted = sum(1 for _ in dst_addresses)
            self.messages_sent += attempted
            self.messages_dropped += attempted
            return 0
        msg.sender = src.address
        frame: Optional[bytes] = None
        delivered = 0
        for dst in dst_addresses:
            self.messages_sent += 1
            local = self._actors.get(dst)
            if local is not None:
                if local.alive:
                    self.loop.call_soon(local.receive, msg)
                    delivered += 1
                else:
                    self.messages_dropped += 1
                continue
            if frame is None:
                try:
                    frame = self.codec.frame(msg)
                except CodecError:
                    self.messages_dropped += 1
                    raise
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

    @staticmethod
    def _bump(by_dest: Dict[int, int], family: Any, dst_address: int, count: int) -> int:
        """Add ``count`` to one per-destination counter; return its total."""
        total = by_dest[dst_address] = by_dest.get(dst_address, 0) + count
        if family is not None:
            family.labels(format_endpoint(dst_address)).inc(count)
        return total

    def _note_dropped(self, dst_address: int, count: int) -> None:
        """Account frames lost to an unreachable destination.

        Logged at WARNING exactly once per destination: a dead peer can
        eat thousands of flood frames and repeating the line per frame
        would drown the log without adding information.
        """
        if count <= 0:
            return
        self.messages_dropped += count
        total = self._bump(self.dropped_by_dest, self._dropped_fam, dst_address, count)
        if dst_address not in self._drop_warned:
            self._drop_warned.add(dst_address)
            logger.warning(
                "dropping frames to unreachable %s after %d connect attempts "
                "(%d dropped so far; further drops to this destination are "
                "counted but not logged)",
                format_endpoint(dst_address), self.max_retries, total,
            )

    def _enqueue(self, dst_address: int, frame: bytes) -> bool:
        link = self._conns.get(dst_address)
        if link is None:
            link = self._conns[dst_address] = _PeerLink(self, dst_address)
        if link.failed:
            self._note_dropped(dst_address, 1)
            return False
        link.send(frame)
        if len(link.queue) > self.max_queue:
            link.queue.popleft()
            self._note_backpressure(dst_address, 1)
        if link.transport is None and link.dialing is None:
            link.dialing = self.loop.create_task(
                self._dial(link), name=f"aio-transport-dial-{dst_address}"
            )
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
        total = self._bump(
            self.backpressure_by_dest, self._backpressure_fam, dst_address, count
        )
        if dst_address not in self._backpressure_warned:
            self._backpressure_warned.add(dst_address)
            logger.warning(
                "outbound queue to %s full (%d frames); dropping oldest "
                "(%d shed so far; further backpressure drops to this "
                "destination are counted but not logged)",
                format_endpoint(dst_address), self.max_queue, total,
            )

    # ------------------------------------------------------------------
    # Peer-link hooks (FrameConnection owner)
    # ------------------------------------------------------------------
    def frame_received(self, link: _PeerLink, msg: Message, nbytes: int) -> None:
        link.reject("foreign")  # links are one-way: nothing comes back

    def connection_closed(self, link: _PeerLink, exc: Optional[BaseException]) -> None:
        """A link died: re-queue what it may not have sent; redial if anything waits."""
        if self._closing:
            return
        if link.unflushed:
            retried = len(link.unflushed)
            link.queue.extendleft(reversed(link.unflushed))
            link.unflushed.clear()
            link.unflushed_bytes = 0
            self._bump(self.retried_by_dest, self._retried_fam, link.address, retried)
            # Sends may have landed behind them: re-bound, oldest first.
            overflow = len(link.queue) - self.max_queue
            for _ in range(overflow):
                link.queue.popleft()
            self._note_backpressure(link.address, overflow)
        if link.queue and link.dialing is None:
            link.dialing = self.loop.create_task(
                self._dial(link), name=f"aio-transport-dial-{link.address}"
            )

    async def _dial(self, link: _PeerLink) -> None:
        """Connect with exponential backoff; runs only while the link is down."""
        host, port = unpack_endpoint(link.address)
        delay = self.backoff_base
        try:
            for attempt in range(self.max_retries):
                if attempt:
                    await asyncio.sleep(delay)
                    delay = min(delay * 2, 2.0)
                try:
                    await asyncio.wait_for(
                        self.loop.create_connection(lambda: link, host, port),
                        self.op_timeout,
                    )
                except (OSError, asyncio.TimeoutError):
                    continue
                link.connects += 1
                if link.connects > 1:
                    self._bump(
                        self.reconnects_by_dest, self._reconnects_fam, link.address, 1
                    )
                return
            link.failed = True
            dropped = len(link.queue)
            link.queue.clear()
            self._note_dropped(link.address, dropped)
        finally:
            link.dialing = None

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    async def aclose(self) -> None:
        """Abort every link and stop every connect attempt; the sockets
        are closed on return.  Frames still queued count as dropped."""
        self._closing = True
        tasks = []
        for link in self._conns.values():
            self.messages_dropped += len(link.queue)
            link.queue.clear()
            link.abort()
            if link.dialing is not None:
                link.dialing.cancel()
                tasks.append(link.dialing)
        await asyncio.gather(*tasks, return_exceptions=True)
        await asyncio.sleep(0)  # one loop turn: the aborted sockets close
        self._conns.clear()
