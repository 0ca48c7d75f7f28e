"""AioTransport fast path: bounded queues, encode-once fan-out, and
post-coalescing byte accounting.
"""

from __future__ import annotations

import asyncio
import logging
import socket

from repro.obs.registry import MetricsRegistry
from repro.overlay.messages import FloodQuery, Hello
from repro.runtime import AioTransport, pack_endpoint
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
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                received.extend(chunk)
                got_some.set()
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

