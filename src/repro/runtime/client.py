"""Client verbs: correlated request/reply messages to a live node.

Protocol frames are fire-and-forget -- a peer never answers on the same
connection it received from.  The client verbs are different: ``put`` /
``get`` / ``status`` want an answer, so a node replies with a
:class:`ClientReply` frame on the *inbound* connection the request
arrived on.  They reuse the exact same codec and framing as protocol
messages but register in the reserved type-id band at
:data:`~repro.runtime.codec.CLIENT_TYPE_BASE` so they can never collide
with :func:`~repro.overlay.messages.wire_types` growth.

**Request correlation** -- every request carries a connection-scoped
``request_id``, echoed verbatim on its :class:`ClientReply`.  The node
answers each request as it resolves, *not* in arrival order, so one TCP
connection can carry many concurrent in-flight operations
(:class:`ClientConnection` multiplexes them: futures keyed by request
id, completed out of order as replies land).  A reply whose id matches
no in-flight request is dropped.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass
from typing import Any, Dict, Optional, Set, Tuple

from ..obs.registry import MetricsRegistry
from ..overlay.messages import Message
from ..swarm import manifest as swarm_manifest
from .codec import CLIENT_TYPE_BASE, CodecError, MessageCodec, default_codec
from .aio_transport import FrameConnection

__all__ = [
    "ClientPut",
    "ClientGet",
    "ClientStatus",
    "ClientReply",
    "ClientPutPiece",
    "ClientPutFile",
    "ClientGetFile",
    "ClientGetPiece",
    "ClientPieceReply",
    "ClientConnection",
    "CLIENT_REQUEST_TYPES",
    "client_types",
    "runtime_codec",
    "put_file",
    "get_file",
    "acall",
    "call",
]


@dataclass(slots=True)
class ClientPut(Message):
    """Store ``value`` under ``key`` via the receiving node's data plane."""

    key: str = ""
    value: Any = None
    request_id: int = 0  # connection-scoped correlation id (0 = none)


@dataclass(slots=True)
class ClientGet(Message):
    """Look ``key`` up through the overlay; reply carries the value."""

    key: str = ""
    request_id: int = 0  # connection-scoped correlation id (0 = none)


@dataclass(slots=True)
class ClientStatus(Message):
    """Ask a node (or the bootstrap server) for a JSON status snapshot.

    ``include_metrics`` folds the node's full metrics-registry snapshot
    (the same data ``/metrics.json`` serves) into the reply payload
    under ``"metrics"``.
    """

    include_metrics: bool = False
    request_id: int = 0  # connection-scoped correlation id (0 = none)


@dataclass(slots=True)
class ClientReply(Message):
    """Uniform answer: ``ok`` plus either a payload or an error string.

    ``request_id`` echoes the request's correlation id so a pipelined
    connection can match out-of-order replies to their requests.
    """

    ok: bool = False
    payload: Any = None
    error: Optional[str] = None
    request_id: int = 0


# ----------------------------------------------------------------------
# Bulk transfer verbs (repro.swarm): put-file / get-file
# ----------------------------------------------------------------------
@dataclass(slots=True)
class ClientPutPiece(Message):
    """Stage one raw piece of chunked content on the receiving node.

    ``data`` is a real ``bytes`` field, so the piece travels as a raw
    v2 frame (no base64).  Pieces are held in a staging area until the
    matching :class:`ClientPutFile` commits them against its manifest.
    """

    content: str = ""  # whole-content SHA-256, hex (staging key)
    index: int = 0
    total: int = 0
    data: bytes = b""
    request_id: int = 0


@dataclass(slots=True)
class ClientPutFile(Message):
    """Commit staged pieces: verify hashes, store the manifest, seed.

    The node checks every staged piece against ``pieces`` (the per-piece
    SHA-256 list), stores the manifest through the ordinary put path
    (replication applies), registers itself as the first seed with the
    tracker, and only then replies ok.
    """

    key: str = ""
    content: str = ""
    length: int = 0
    piece_size: int = 0
    pieces: Tuple[str, ...] = ()
    request_id: int = 0


@dataclass(slots=True)
class ClientGetFile(Message):
    """Resolve ``key``'s manifest and swarm-fetch its content.

    The reply payload carries the manifest and fetch counters; the
    client then pulls the pieces with :class:`ClientGetPiece` and
    verifies each hash itself (see :func:`get_file`).
    """

    key: str = ""
    request_id: int = 0


@dataclass(slots=True)
class ClientGetPiece(Message):
    """Read one piece the node holds; answered by ClientPieceReply."""

    content: str = ""
    index: int = 0
    request_id: int = 0


@dataclass(slots=True)
class ClientPieceReply(ClientReply):
    """A :class:`ClientReply` with a raw ``bytes`` piece body.

    Subclassing keeps :class:`ClientConnection`'s reply matching
    untouched while the piece data rides a length-prefixed ``bytes``
    field on the v2 fast path instead of base64 inside the JSON payload.
    """

    data: bytes = b""


# Every verb a node answers; NodeDaemon's connection loop routes these
# to handle_client and everything else to the protocol actor.
CLIENT_REQUEST_TYPES = (
    ClientPut,
    ClientGet,
    ClientStatus,
    ClientPutPiece,
    ClientPutFile,
    ClientGetFile,
    ClientGetPiece,
)


def client_types() -> tuple:
    """Client message classes in stable wire-registration order."""
    return (
        ClientPut,
        ClientGet,
        ClientStatus,
        ClientReply,
        # repro.swarm bulk-transfer verbs (appended in PR 8; ids derive
        # from position, so new classes only ever go here)
        ClientPutPiece,
        ClientPutFile,
        ClientGetFile,
        ClientGetPiece,
        ClientPieceReply,
    )


def runtime_codec() -> MessageCodec:
    """The full live-runtime codec: every protocol message + client verbs."""
    codec = default_codec()
    for i, cls in enumerate(client_types()):
        codec.register(cls, CLIENT_TYPE_BASE + i)
    return codec


class ClientConnection:
    """One persistent TCP connection multiplexing concurrent client ops.

    Requests are assigned connection-scoped ids and queued on a
    :class:`~repro.runtime.aio_transport.FrameConnection` (requests made
    in one loop turn leave in one write); its ``data_received`` callback
    completes the matching future as each :class:`ClientReply` lands --
    in whatever order the node resolves them.  Many coroutines may call
    :meth:`request` concurrently on the same connection.

    Use as an async context manager, or ``connect()`` / ``aclose()``
    explicitly::

        async with ClientConnection(host, port) as conn:
            replies = await asyncio.gather(
                *(conn.request(ClientGet(key=k)) for k in keys)
            )

    On EOF, a decode error, or :meth:`aclose`, every in-flight future
    is failed with :class:`ConnectionError` -- futures never leak.  A
    frame that is not a reply is skipped and counted in ``registry``'s
    ``repro_inbound_rejected_total{reason="foreign"}``.

    ``retry=True`` adds a single bounded reconnect-and-retry for the
    *idempotent* verbs (:class:`ClientGet` / :class:`ClientStatus`):
    when such a request fails with :class:`ConnectionError` (connection
    died, node restarted, failover handoff), the connection is reopened
    once and the request re-sent.  Off by default -- puts and any
    explicit ``aclose()`` never retry, so non-idempotent operations are
    never silently repeated.
    """

    IDEMPOTENT_VERBS = (ClientGet, ClientStatus, ClientGetFile, ClientGetPiece)

    def __init__(
        self,
        host: str,
        port: int,
        codec: Optional[MessageCodec] = None,
        timeout: float = 10.0,
        retry: bool = False,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry
        self.codec = codec if codec is not None else runtime_codec()
        self.registry = MetricsRegistry()  # inbound rejects on this connection
        self.reject_warned: Set[str] = set()
        self._ids = itertools.count(1)  # 0 is the uncorrelated sentinel
        self._pending: Dict[int, asyncio.Future] = {}
        self._conn: Optional[FrameConnection] = None
        self._closed = False
        self._user_closed = False  # aclose() called: never reconnect
        self._conn_gen = 0  # bumped per successful reconnect
        self._reconnect_lock = asyncio.Lock()

    # ------------------------------------------------------------------
    async def connect(self, timeout: Optional[float] = None) -> "ClientConnection":
        """Open the socket; idempotent."""
        if self._conn is not None:
            return self
        if self._closed:
            raise ConnectionError("connection already closed")
        loop = asyncio.get_running_loop()
        conn = FrameConnection(self, loop, self.timeout)
        await asyncio.wait_for(
            loop.create_connection(lambda: conn, self.host, self.port),
            self.timeout if timeout is None else timeout,
        )
        self._conn = conn
        return self

    async def __aenter__(self) -> "ClientConnection":
        return await self.connect()

    async def __aexit__(self, *exc: object) -> None:
        await self.aclose()

    @property
    def inflight(self) -> int:
        """Requests currently awaiting their reply."""
        return len(self._pending)

    # ------------------------------------------------------------------
    async def request(self, msg: Message, timeout: Optional[float] = None) -> ClientReply:
        """Send one client verb; await its (possibly out-of-order) reply.

        With ``retry=True`` and an idempotent verb, one
        :class:`ConnectionError` triggers a single reconnect + re-send;
        every other failure (including timeouts) propagates unchanged.
        """
        retriable = self.retry and isinstance(msg, self.IDEMPOTENT_VERBS)
        attempts = 2 if retriable else 1
        for attempt in range(attempts):
            gen = self._conn_gen
            try:
                return await self._request_once(msg, timeout)
            except ConnectionError:
                if attempt + 1 >= attempts or self._user_closed:
                    raise
                await self._ensure_reconnected(gen)
        raise ConnectionError("unreachable")  # pragma: no cover

    async def _request_once(
        self, msg: Message, timeout: Optional[float] = None
    ) -> ClientReply:
        conn = self._conn
        if conn is None or self._closed:
            raise ConnectionError(f"connection to {self.host}:{self.port} is not open")
        rid = next(self._ids)
        msg.request_id = rid
        future: asyncio.Future = conn.loop.create_future()
        self._pending[rid] = future
        expiry = conn.loop.call_later(
            self.timeout if timeout is None else timeout, _expire, future
        )
        try:
            conn.send(self.codec.frame(msg))
            return await future
        finally:
            expiry.cancel()
            self._pending.pop(rid, None)

    async def _ensure_reconnected(self, gen: int) -> None:
        """Reopen the socket once (retry path).

        Serialised behind a lock so concurrent failing requests share
        one reconnect: whoever arrives first (matching generation)
        drops the dead connection and dials again; later arrivals see
        the bumped generation and return immediately.
        """
        async with self._reconnect_lock:
            if self._user_closed:
                raise ConnectionError(
                    f"connection to {self.host}:{self.port} was closed"
                )
            if self._conn_gen != gen:
                return  # someone else already reconnected
            self._drop_connection()
            self._closed = False
            await self.connect()
            self._conn_gen += 1

    # ------------------------------------------------------------------
    # FrameConnection owner hooks
    # ------------------------------------------------------------------
    def frame_received(self, conn: FrameConnection, reply: Message, nbytes: int) -> None:
        if not isinstance(reply, ClientReply):
            conn.reject("foreign")
            return
        future = self._pending.pop(reply.request_id, None)
        if future is not None and not future.done():
            future.set_result(reply)

    def connection_closed(self, conn: FrameConnection, exc: Optional[BaseException]) -> None:
        if conn is not self._conn:
            return  # one this object already dropped
        # The reply stream is gone, so the connection is unusable: mark
        # it closed so later request() calls fail fast instead of
        # queueing into a dead socket and timing out.
        self._closed = True
        if isinstance(exc, CodecError):
            # An undecodable body or an oversized length prefix: the
            # stream cannot be resynchronised.
            error = ConnectionError(f"undecodable reply frame: {exc}")
            error.__cause__ = exc
            exc = error
        self._fail_pending(exc)

    def _drop_connection(self) -> None:
        conn, self._conn = self._conn, None
        if conn is not None:
            conn.abort()
        self._fail_pending(None)

    def _fail_pending(self, cause: Optional[BaseException]) -> None:
        """Fail every in-flight future (connection is gone)."""
        pending, self._pending = self._pending, {}
        if not pending:
            return
        exc = ConnectionError(
            f"{self.host}:{self.port} closed with "
            f"{len(pending)} request(s) in flight"
        )
        if cause is not None:
            exc.__cause__ = cause
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)

    # ------------------------------------------------------------------
    async def aclose(self) -> None:
        """Close the socket; in-flight requests get ConnectionError.

        Idempotent, and safe after the connection already died.
        """
        self._closed = True
        self._user_closed = True
        self._drop_connection()


def _expire(future: asyncio.Future) -> None:
    if not future.done():
        future.set_exception(asyncio.TimeoutError())


# ----------------------------------------------------------------------
# Bulk-transfer client helpers
# ----------------------------------------------------------------------
async def put_file(
    conn: ClientConnection,
    key: str,
    data: bytes,
    piece_size: int = 65536,
    window: int = 16,
    timeout: Optional[float] = None,
) -> ClientReply:
    """Chunk ``data``, stream the pieces, commit the manifest.

    Pieces are pipelined on the connection (at most ``window`` in
    flight) as raw-bytes v2 frames; the final :class:`ClientPutFile`
    makes the node verify every staged piece hash before it stores the
    manifest and starts seeding.  Raises ``RuntimeError`` if any piece
    upload or the commit is refused.
    """
    manifest = swarm_manifest.build_manifest(data, piece_size)
    pieces = swarm_manifest.split_pieces(data, piece_size)
    content = manifest["content"]
    total = len(pieces)
    gate = asyncio.Semaphore(max(1, window))

    async def _send(index: int, piece: bytes) -> None:
        async with gate:
            reply = await conn.request(
                ClientPutPiece(content=content, index=index, total=total, data=piece),
                timeout,
            )
            if not reply.ok:
                raise RuntimeError(f"piece {index} refused: {reply.error}")

    await asyncio.gather(*(_send(i, p) for i, p in enumerate(pieces)))
    reply = await conn.request(
        ClientPutFile(
            key=key,
            content=content,
            length=len(data),
            piece_size=piece_size,
            pieces=tuple(manifest["pieces"]),
        ),
        timeout,
    )
    if not reply.ok:
        raise RuntimeError(f"put-file {key!r} refused: {reply.error}")
    return reply


async def get_file(
    conn: ClientConnection,
    key: str,
    window: int = 16,
    timeout: Optional[float] = None,
) -> bytes:
    """Fetch chunked content end to end, verifying every hash locally.

    Asks the node to swarm-fetch ``key``'s content, then pulls the
    pieces over the connection (pipelined, at most ``window`` in
    flight), checks each piece against the manifest's SHA-256 list, and
    checks the assembled bytes against the whole-content hash.  Raises
    ``RuntimeError`` on refusal or any integrity mismatch.
    """
    reply = await conn.request(ClientGetFile(key=key), timeout)
    if not reply.ok:
        raise RuntimeError(f"get-file {key!r} failed: {reply.error}")
    manifest = reply.payload["manifest"]
    if not swarm_manifest.is_manifest(manifest):
        raise RuntimeError(f"get-file {key!r}: node returned no manifest")
    content = manifest["content"]
    n = len(manifest["pieces"])
    got: Dict[int, bytes] = {}
    gate = asyncio.Semaphore(max(1, window))

    async def _fetch(index: int) -> None:
        async with gate:
            piece_reply = await conn.request(
                ClientGetPiece(content=content, index=index), timeout
            )
            if not piece_reply.ok:
                raise RuntimeError(f"piece {index} failed: {piece_reply.error}")
            piece = getattr(piece_reply, "data", b"")
            if not swarm_manifest.verify_piece(manifest, index, piece):
                raise RuntimeError(f"piece {index} failed hash verification")
            got[index] = piece

    await asyncio.gather(*(_fetch(i) for i in range(n)))
    try:
        return swarm_manifest.assemble(manifest, got)
    except ValueError as exc:
        raise RuntimeError(f"get-file {key!r}: {exc}") from exc


async def acall(
    host: str, port: int, msg: Message, timeout: float = 10.0
) -> ClientReply:
    """One-shot convenience: connect, send one verb, await the reply."""
    conn = ClientConnection(host, port, timeout=timeout)
    await conn.connect()
    try:
        return await conn.request(msg, timeout)
    finally:
        await conn.aclose()


def call(host: str, port: int, msg: Message, timeout: float = 10.0) -> ClientReply:
    """Blocking wrapper around :func:`acall` for CLI use."""
    return asyncio.run(acall(host, port, msg, timeout))
