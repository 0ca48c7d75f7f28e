"""AioTransport fast path: bounded queues, encode-once fan-out,
post-coalescing byte accounting, the link failure paths, and the framed
connection's splitter under any chunking.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import socket

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.prom import handle_http_request
from repro.obs.registry import MetricsRegistry
from repro.overlay.messages import FloodQuery, Hello
from repro.runtime import AioTransport, format_endpoint, pack_endpoint
from repro.runtime.aio_transport import FrameConnection
from repro.runtime.client import runtime_codec


class _Origin:
    address = pack_endpoint("127.0.0.1", 65001)
    alive = True

    def receive(self, msg) -> None:  # pragma: no cover - never local
        pass


def _dead_endpoint() -> int:
    """A localhost port that is certainly closed: bind, read, release."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return pack_endpoint("127.0.0.1", port)


def _counter_total(snapshot, name: str, **label_filter) -> float:
    fam = snapshot.get(name)
    if not fam:
        return 0.0
    return sum(
        s["value"]
        for s in fam["samples"]
        if all(s["labels"].get(k) == v for k, v in label_filter.items())
    )


def test_backpressure_drops_oldest_and_counts(caplog) -> None:
    """A full outbound queue sheds the oldest frame, synchronously.

    The destination never accepts, so nothing drains: every enqueue
    beyond ``max_queue`` must evict the queue head (not the new frame)
    and bump ``repro_tx_backpressure_total`` -- all before the event
    loop runs, since bounding happens in ``_enqueue`` itself.
    """
    caplog.set_level(logging.WARNING, logger="repro.runtime.transport")
    dst = _dead_endpoint()

    async def scenario() -> None:
        reg = MetricsRegistry()
        codec = runtime_codec()
        transport = AioTransport(
            codec,
            asyncio.get_running_loop(),
            max_retries=2,
            backoff_base=30.0,  # writer sleeps in backoff; queue is ours
            max_queue=4,
            registry=reg,
        )
        origin = _Origin()
        try:
            msgs = [FloodQuery(query_id=i, key=f"k{i}") for i in range(10)]
            for m in msgs:
                assert transport.send(origin, dst, m) is True
            # Synchronous assertions: no await since the first send.
            conn = transport._conns[dst]
            assert len(conn.queue) == 4
            assert transport.backpressure_by_dest[dst] == 6
            assert transport.tx_queue_depth() == 4
            # Drop-OLDEST: the survivors are the newest four frames.
            kept = [codec.decode(memoryview(f)[4:]).query_id for f in conn.queue]
            assert kept == [6, 7, 8, 9]
            # Nothing hit a socket, so post-coalescing tx bytes stay 0.
            assert transport.bytes_sent == 0

            snap = reg.snapshot()
            from repro.runtime import format_endpoint

            endpoint = format_endpoint(dst)
            assert (
                _counter_total(snap, "repro_tx_backpressure_total", dest=endpoint)
                == 6.0
            )
            assert _counter_total(snap, "repro_tx_queue_depth") == 4.0
            info = transport.connection_info()[endpoint]
            assert info["queue_depth"] == 4
            assert info["backpressure_drops"] == 6
        finally:
            await transport.aclose()

    asyncio.run(scenario())
    warnings = [
        r
        for r in caplog.records
        if r.name == "repro.runtime.transport" and "queue" in r.getMessage()
    ]
    assert len(warnings) == 1  # once per destination, however many drops


def test_send_many_encodes_once_and_fans_out() -> None:
    """Broadcast enqueues the *same* frame object to every destination."""

    async def scenario() -> None:
        transport = AioTransport(
            runtime_codec(),
            asyncio.get_running_loop(),
            max_retries=1,
            backoff_base=30.0,
        )
        origin = _Origin()
        dests = [_dead_endpoint() for _ in range(3)]
        try:
            delivered = transport.send_many(origin, dests, Hello())
            assert delivered == 3
            frames = [transport._conns[d].queue[0] for d in dests]
            assert frames[0] is frames[1] is frames[2]
        finally:
            await transport.aclose()

    asyncio.run(scenario())


def test_tx_bytes_counted_after_coalescing() -> None:
    """``bytes_sent`` reflects drained socket writes, not enqueues."""

    async def scenario() -> None:
        received = bytearray()
        got_some = asyncio.Event()

        async def sink(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
            try:
                while True:
                    chunk = await reader.read(65536)
                    if not chunk:
                        break
                    received.extend(chunk)
                    got_some.set()
            finally:
                writer.close()

        server = await asyncio.start_server(sink, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        dst = pack_endpoint("127.0.0.1", port)
        reg = MetricsRegistry()
        codec = runtime_codec()
        transport = AioTransport(
            codec, asyncio.get_running_loop(), registry=reg
        )
        origin = _Origin()
        try:
            msgs = [FloodQuery(query_id=i, key="burst") for i in range(20)]
            expected = sum(len(codec.frame(m)) for m in msgs)
            for m in msgs:
                transport.send(origin, dst, m)
            deadline = asyncio.get_running_loop().time() + 10
            while len(received) < expected:
                assert asyncio.get_running_loop().time() < deadline
                await got_some.wait()
                got_some.clear()
            # The batch drained: accounting equals actual socket bytes.
            assert transport.bytes_sent == expected == len(received)
            snap = reg.snapshot()
            assert (
                _counter_total(snap, "repro_wire_bytes_total", direction="tx")
                == expected
            )
            assert transport.tx_queue_depth() == 0
        finally:
            await transport.aclose()
            server.close()
            await server.wait_closed()

    asyncio.run(scenario())



# ----------------------------------------------------------------------
# Link failure paths
# ----------------------------------------------------------------------
class _Sink(asyncio.Protocol):
    """Server side of one accepted link: records every byte; ``hold``
    stops reading at once, ``fin_after`` closes after that many bytes."""

    def __init__(self, log: list, hold: bool = False, fin_after: int = 0) -> None:
        self.log, self.hold, self.fin_after = log, hold, fin_after
        self.data = bytearray()

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.log.append(self)
        if self.hold:
            transport.pause_reading()

    def data_received(self, data: bytes) -> None:
        self.data += data
        if self.fin_after and len(self.data) >= self.fin_after:
            self.transport.close()


async def _wait_for(predicate, seconds: float = 10.0) -> None:
    deadline = asyncio.get_running_loop().time() + seconds
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.01)


def test_fin_from_the_far_end_reconnects_on_the_next_send() -> None:
    codec = runtime_codec()
    hello, query = Hello(), FloodQuery(query_id=2, key="b")
    hello.sender = query.sender = _Origin.address  # as send() stamps them
    first, second = codec.frame(hello), codec.frame(query)

    async def scenario() -> None:
        loop = asyncio.get_running_loop()
        accepted: list = []
        factories = iter([lambda: _Sink(accepted, fin_after=len(first)),
                          lambda: _Sink(accepted)])
        server = await loop.create_server(lambda: next(factories)(), "127.0.0.1", 0)
        dst = pack_endpoint("127.0.0.1", server.sockets[0].getsockname()[1])
        reg = MetricsRegistry()
        transport = AioTransport(codec, loop, registry=reg)
        try:
            transport.send(_Origin(), dst, hello)
            link = transport._conns[dst]
            await _wait_for(lambda: link.connects == 1 and link.transport is None)
            transport.send(_Origin(), dst, query)
            await _wait_for(lambda: len(accepted) == 2 and bytes(accepted[1].data) == second)
            assert bytes(accepted[0].data) == first
            assert transport.reconnects_by_dest == {dst: 1}
            assert _counter_total(
                reg.snapshot(), "repro_transport_reconnects_total",
                dest=format_endpoint(dst),
            ) == 1.0
        finally:
            await transport.aclose()
            for sink in accepted:
                sink.transport.close()
            server.close()
            await server.wait_closed()

    asyncio.run(scenario())


def test_stalled_link_sheds_then_aborts_and_resends_on_a_new_link() -> None:
    """A far end that stops reading pauses the link: the queue sheds its
    oldest frames, and after ``op_timeout`` the link is aborted and what
    the socket transport still held goes out again on a new link."""

    async def scenario() -> None:
        loop = asyncio.get_running_loop()
        accepted: list = []
        factories = iter([lambda: _Sink(accepted, hold=True), lambda: _Sink(accepted)])
        listener = socket.socket()
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        listener.bind(("127.0.0.1", 0))
        server = await loop.create_server(lambda: next(factories)(), sock=listener)
        dst = pack_endpoint("127.0.0.1", listener.getsockname()[1])
        reg = MetricsRegistry()
        transport = AioTransport(
            runtime_codec(), loop, op_timeout=0.5, max_queue=8, registry=reg
        )
        origin, ids = _Origin(), itertools.count()
        try:
            transport.send(origin, dst, FloodQuery(query_id=next(ids), key="s"))
            link = transport._conns[dst]
            await _wait_for(lambda: link.transport is not None)
            link.transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
            )
            link.transport.set_write_buffer_limits(high=2048)
            for _ in range(5000):  # one flush per turn until the pause sticks
                if link.paused:
                    await asyncio.sleep(0.05)  # kernel buffers may still take it
                    if link.paused:
                        break
                for _ in range(8):
                    transport.send(origin, dst, FloodQuery(query_id=next(ids), key="s"))
                await asyncio.sleep(0)
            assert link.paused
            shed_before = transport.backpressure_by_dest.get(dst, 0)
            for _ in range(20):
                transport.send(origin, dst, FloodQuery(query_id=next(ids), key="s"))
            assert transport.backpressure_by_dest[dst] >= shed_before + 12
            newest = next(ids) - 1

            await _wait_for(lambda: len(accepted) == 2 and link.connects == 2)
            codec = transport.codec
            await _wait_for(lambda: newest in _query_ids(codec, accepted[1].data))
            snap = reg.snapshot()
            endpoint = format_endpoint(dst)
            assert transport.retried_by_dest[dst] > 0
            assert _counter_total(
                snap, "repro_frames_retried_total", dest=endpoint
            ) == transport.retried_by_dest[dst]
            assert _counter_total(
                snap, "repro_tx_backpressure_total", dest=endpoint
            ) == transport.backpressure_by_dest[dst]
            assert transport.reconnects_by_dest == {dst: 1}
        finally:
            await transport.aclose()
            for sink in accepted:
                sink.transport.close()
            server.close()
            await server.wait_closed()

    asyncio.run(scenario())


def _query_ids(codec, data: bytes) -> list:
    ids, pos = [], 0
    while pos + 4 <= len(data):
        end = pos + 4 + int.from_bytes(data[pos : pos + 4], "big")
        if end > len(data):
            break
        ids.append(codec.decode(data[pos + 4 : end]).query_id)
        pos = end
    return ids


# ----------------------------------------------------------------------
# The splitter: any chunking decodes like one read
# ----------------------------------------------------------------------
# tests/test_runtime_codec.py::test_wire_golden_frames' payloads, framed.
_GOLDEN_PAYLOADS = [
    bytes.fromhex(h) for h in (
        "020014ffffffffffffffff0000000000000000",
        "02001900007f0000011092000000000000000500000000ffffffff00000008"
        "d0bad0bbd18ed18700000a0000011ce9000000000000004d0000000000000003"
        "00000000000000020000000000000009",
        "020200ffffffffffffffff0000000000000000000000016b000000147b225f5f"
        "62797465735f5f223a224141453d227d0000000000000007",
    )
]
_GOLDEN_FRAMES = [len(p).to_bytes(4, "big") + p for p in _GOLDEN_PAYLOADS]
_HTTP_HEAD = b"GET /metrics HTTP/1.1\r\nHost: node\r\n\r\n"


class _Owner:
    def __init__(self) -> None:
        self.codec = runtime_codec()
        self.registry = MetricsRegistry()
        self.reject_warned: set = set()
        self.got: list = []

    def frame_received(self, conn, msg, nbytes: int) -> None:
        self.got.append((type(msg), msg, msg.sender, nbytes))

    def connection_closed(self, conn, exc) -> None:  # pragma: no cover
        pass


class _Wire:
    """The socket transport, as far as FrameConnection's receive side sees it."""

    def __init__(self) -> None:
        self.out = bytearray()
        self.closed = False

    def write(self, data: bytes) -> None:
        self.out += data

    def close(self) -> None:
        self.closed = True

    abort = close

    def get_extra_info(self, name: str):
        return ("127.0.0.1", 9)


def _feed(stream: bytes, cuts, sniff: bool):
    """Push ``stream`` through one FrameConnection, split at ``cuts``."""
    owner, wire = _Owner(), _Wire()
    http = (lambda line: handle_http_request(line, owner.registry)) if sniff else None
    conn = FrameConnection(owner, None, 5.0, http=http)
    conn.connection_made(wire)
    bounds = [0, *sorted(c for c in set(cuts) if 0 < c < len(stream)), len(stream)]
    for lo, hi in zip(bounds, bounds[1:]):
        conn.data_received(stream[lo:hi])
    return owner.got, bytes(wire.out), wire.closed


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_frames_split_anywhere_decode_like_one_read(data) -> None:
    frames = data.draw(st.lists(st.sampled_from(_GOLDEN_FRAMES), min_size=1, max_size=6))
    stream = b"".join(frames)
    starts = list(itertools.accumulate(len(f) for f in frames[:-1]))
    # Always one cut inside a frame's 4-byte length prefix; the first
    # frame's prefix is also an inbound connection's HTTP sniff window.
    cuts = {data.draw(st.sampled_from([0, *starts])) + data.draw(st.integers(1, 3))}
    cuts |= set(data.draw(st.lists(st.integers(1, len(stream) - 1), max_size=12)))
    sniff = data.draw(st.booleans())
    whole = _feed(stream, (), sniff)
    assert [n for *_, n in whole[0]] == [len(f) for f in frames]
    assert whole[1:] == (b"", False)
    assert _feed(stream, cuts, sniff) == whole


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_http_head_split_anywhere_answers_like_one_read(data) -> None:
    cuts = {data.draw(st.integers(1, 3))}  # inside the 4-byte sniff
    cuts |= set(data.draw(st.lists(st.integers(1, len(_HTTP_HEAD) - 1), max_size=8)))
    whole = _feed(_HTTP_HEAD, (), True)
    assert whole[0] == [] and whole[1].startswith(b"HTTP/1.1 200 OK") and whole[2]
    assert _feed(_HTTP_HEAD, cuts, True) == whole
