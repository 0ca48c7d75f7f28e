"""Pipelined client connections: correlation, ordering, leak safety.

The fake servers here speak the real wire codec but control *reply
order* deliberately: batching requests and answering newest-first
proves the connection matches replies by request id rather than
arrival order; closing mid-flight proves no future leaks.  The final
tests drive the real stack (localnet) through one pipelined connection
and cover the loadgen aggregation helpers.
"""

from __future__ import annotations

import asyncio
import logging
import struct

import pytest

from repro.core.lookup import QueryRegistry, SUCCESS
from repro.loadgen import LoadResult, LoadSpec, VerbStats
from repro.overlay.messages import Hello
from repro.runtime import (
    ClientConnection,
    ClientGet,
    ClientPut,
    ClientReply,
    CodecError,
    LocalNet,
)
from repro.runtime.aio_transport import FrameConnection
from repro.runtime.client import runtime_codec
from repro.runtime.localnet import fast_config
from repro.runtime.node import _query_id_block


# ----------------------------------------------------------------------
# Fake servers speaking the real codec with scripted reply behaviour
# ----------------------------------------------------------------------
class _FakeServer:
    """Accepts client verbs on the runtime's own framed connection;
    subclasses decide when/how to reply, frame by frame."""

    def __init__(self) -> None:
        self.codec = runtime_codec()
        self.registry = None
        self.reject_warned: set = set()
        self.server: asyncio.AbstractServer | None = None
        self.host = "127.0.0.1"
        self.port = 0

    async def start(self) -> "_FakeServer":
        loop = asyncio.get_running_loop()
        self.server = await loop.create_server(
            lambda: FrameConnection(self, loop, 10.0), self.host, 0
        )
        self.port = self.server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()
            self.server = None

    def frame_received(self, conn: FrameConnection, msg, nbytes: int) -> None:
        raise NotImplementedError

    def connection_closed(self, conn: FrameConnection, exc) -> None:
        pass


class _ReverseBatchServer(_FakeServer):
    """Answers each batch of ``batch`` requests in *reverse* order."""

    def __init__(self, batch: int = 8) -> None:
        super().__init__()
        self.batch = batch
        self.pending: list = []

    def frame_received(self, conn, msg, nbytes) -> None:
        self.pending.append(msg)
        if len(self.pending) < self.batch:
            return
        for req in reversed(self.pending):
            reply = ClientReply(
                ok=True,
                payload={"key": req.key, "rid": req.request_id},
                request_id=req.request_id,
            )
            conn.send(self.codec.frame(reply))
        self.pending.clear()


class _DropAfterServer(_FakeServer):
    """Replies to the first ``answer`` requests, then drops the link."""

    def __init__(self, answer: int, total: int) -> None:
        super().__init__()
        self.answer = answer
        self.total = total
        self.seen = 0

    def frame_received(self, conn, msg, nbytes) -> None:
        self.seen += 1
        if self.seen <= self.answer:
            reply = ClientReply(ok=True, payload=msg.key, request_id=msg.request_id)
            conn.send(self.codec.frame(reply))
        if self.seen == self.total:
            # Close with (total - answer) requests unanswered, after the
            # queued replies' flush (scheduled earlier, so it runs first).
            conn.loop.call_soon(conn.transport.close)


class _StrayFrameServer(_FakeServer):
    """Precedes every reply with a protocol frame a client never expects."""

    def frame_received(self, conn, msg, nbytes) -> None:
        conn.send(self.codec.frame(Hello()))
        conn.send(self.codec.frame(ClientReply(ok=True, request_id=msg.request_id)))


class _OversizedPrefixServer(_FakeServer):
    """Answers every request with a length prefix beyond MAX_FRAME."""

    def frame_received(self, conn, msg, nbytes) -> None:
        conn.send(struct.pack("!I", 0x7FFFFFFF))


# ----------------------------------------------------------------------
def test_out_of_order_replies_match_their_requests() -> None:
    """64+ concurrent ops on one connection, replies forced out of order."""

    async def scenario() -> None:
        server = await _ReverseBatchServer(batch=8).start()
        try:
            async with ClientConnection(server.host, server.port) as conn:
                async def one(i: int) -> None:
                    key = f"k/{i}"
                    msg = ClientGet(key=key) if i % 2 else ClientPut(
                        key=key, value=f"v{i}"
                    )
                    reply = await conn.request(msg, timeout=10)
                    assert reply.ok
                    # The reply body names the request it answers; it
                    # must be *this* one even though the server answered
                    # each batch newest-first.
                    assert reply.payload["key"] == key
                    assert reply.payload["rid"] == reply.request_id == msg.request_id

                await asyncio.gather(*(one(i) for i in range(96)))
                assert conn.inflight == 0
        finally:
            await server.stop()

    asyncio.run(scenario())


def test_connection_drop_fails_inflight_futures_without_leaks() -> None:
    async def scenario() -> None:
        server = await _DropAfterServer(answer=3, total=10).start()
        try:
            conn = await ClientConnection(server.host, server.port).connect()
            results = await asyncio.gather(
                *(conn.request(ClientGet(key=f"k/{i}"), timeout=10) for i in range(10)),
                return_exceptions=True,
            )
            replies = [r for r in results if isinstance(r, ClientReply)]
            failures = [r for r in results if isinstance(r, ConnectionError)]
            assert len(replies) == 3
            assert len(failures) == 7
            assert conn.inflight == 0, "futures leaked after connection drop"
            with pytest.raises(ConnectionError):
                await conn.request(ClientGet(key="late"))
            await conn.aclose()
        finally:
            await server.stop()

    asyncio.run(scenario())


def test_oversized_length_prefix_fails_requests_and_closes_cleanly() -> None:
    """A hostile length prefix kills the connection, not the caller."""

    async def scenario() -> None:
        server = await _OversizedPrefixServer().start()
        try:
            async with ClientConnection(server.host, server.port) as conn:
                with pytest.raises(ConnectionError) as info:
                    await conn.request(ClientGet(key="k"), timeout=10)
                assert str(0x7FFFFFFF) in str(info.value.__cause__)
                assert isinstance(info.value.__cause__.__cause__, CodecError)
                # the connection ended on its own, and said why
                assert conn._conn.transport is None
                rejected = conn.registry.snapshot()["repro_inbound_rejected_total"]
                assert [(s["labels"], s["value"]) for s in rejected["samples"]] == [
                    ({"reason": "oversized"}, 1.0)
                ]
            # leaving the block ran aclose(): it returned
        finally:
            await server.stop()

    asyncio.run(scenario())


def test_foreign_frames_are_skipped_and_counted(caplog) -> None:
    caplog.set_level(logging.WARNING, logger="repro.runtime.transport")

    async def scenario() -> None:
        server = await _StrayFrameServer().start()
        try:
            async with ClientConnection(server.host, server.port) as conn:
                for _ in range(3):
                    assert (await conn.request(ClientGet(key="k"), timeout=10)).ok
                rejected = conn.registry.snapshot()["repro_inbound_rejected_total"]
                assert [(s["labels"], s["value"]) for s in rejected["samples"]] == [
                    ({"reason": "foreign"}, 3.0)
                ]
        finally:
            await server.stop()

    asyncio.run(scenario())
    assert len([r for r in caplog.records if "rejected foreign" in r.getMessage()]) == 1


# ----------------------------------------------------------------------
def test_pipelined_ops_against_real_localnet() -> None:
    """End to end: 64 interleaved put/get on one connection, real nodes."""

    async def scenario() -> None:
        net = LocalNet(t_peers=2, s_peers=1, seed=13, config=fast_config())
        await net.start(join_timeout=20)
        await net.wait_converged(timeout=20)
        try:
            node = net.nodes[0]
            async with ClientConnection(node.host, node.port) as conn:
                puts = await asyncio.gather(
                    *(conn.request(ClientPut(key=f"p/{i}", value=i), timeout=15)
                      for i in range(32))
                )
                assert all(r.ok for r in puts)
                await asyncio.sleep(0.3)  # let StoreRequests settle
                mixed = await asyncio.gather(
                    *(conn.request(ClientGet(key=f"p/{i}"), timeout=15)
                      for i in range(32)),
                    *(conn.request(ClientPut(key=f"q/{i}", value=i), timeout=15)
                      for i in range(32)),
                )
                assert all(r.ok for r in mixed), [r.error for r in mixed if not r.ok]
                gets = mixed[:32]
                assert [r.payload["value"] for r in gets] == list(range(32))
                assert conn.inflight == 0
        finally:
            await net.stop()
        leftovers = [
            t for t in asyncio.all_tasks() if t is not asyncio.current_task()
        ]
        assert not leftovers, f"leaked tasks: {leftovers}"

    asyncio.run(scenario())


def test_registry_bounded_by_lookups_in_flight() -> None:
    """A long-running node does not keep a record per lookup ever issued."""

    async def scenario() -> None:
        net = LocalNet(t_peers=2, s_peers=1, seed=13, config=fast_config())
        await net.start(join_timeout=20)
        await net.wait_converged(timeout=20)
        try:
            node = net.nodes[0]
            async with ClientConnection(node.host, node.port) as conn:
                for i in range(20):
                    reply = await conn.request(ClientPut(key=f"b/{i}", value=i), timeout=15)
                    assert reply.ok, reply.error
                for i in range(2_000):
                    reply = await conn.request(ClientGet(key=f"b/{i % 20}"), timeout=15)
                    assert reply.ok and reply.payload["value"] == i % 20, reply.error
            assert len(node.queries.records()) <= 1
            assert node.queries.unresolved == 0
        finally:
            await net.stop()

    asyncio.run(scenario())


def test_get_returns_stored_none() -> None:
    """A stored None is a found value: ok=True, value None."""

    async def scenario() -> None:
        net = LocalNet(t_peers=1, s_peers=0, seed=3, config=fast_config())
        await net.start(join_timeout=20)
        await net.wait_converged(timeout=20)
        try:
            node = net.nodes[0]
            async with ClientConnection(node.host, node.port) as conn:
                reply = await conn.request(
                    ClientPut(key="none-key", value=None), timeout=15
                )
                assert reply.ok
                reply = await conn.request(ClientGet(key="none-key"), timeout=15)
                assert reply.ok, reply.error
                assert reply.payload["value"] is None
        finally:
            await net.stop()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
def test_query_id_blocks_are_disjoint_and_rebase_guards() -> None:
    a = _query_id_block(0x0A00000100_1234)
    b = _query_id_block(0x0A00000200_1234)
    assert a != b
    assert 0 <= a < 2**63 and 0 <= b < 2**63

    reg = QueryRegistry()
    reg.rebase(a)
    rec = reg.start(origin=1, key="k", d_id=2, time=0.0, local=False)
    assert rec.query_id == a
    reg.contact(rec.query_id)
    assert rec.contacts == 1  # flat arrays index relative to the base
    reg.succeed(rec.query_id, 1.0, holder=7)
    assert rec.status == SUCCESS
    with pytest.raises(RuntimeError):
        reg.rebase(0)  # too late: ids already handed out


# ----------------------------------------------------------------------
def test_loadgen_stats_and_smoke_gate() -> None:
    stats = VerbStats()
    for ms in range(1, 1001):
        stats.record(float(ms))
    summary = stats.summary()
    assert summary["ops"] == 1000 and summary["errors"] == 0
    assert 495 <= summary["p50_ms"] <= 505
    assert 985 <= summary["p99_ms"] <= 995
    assert 998 <= summary["p999_ms"] <= 1000

    good = LoadResult(
        mode="closed", clients=1, pipeline=1, requested_rate=None,
        measured_seconds=2.0, put=VerbStats(), get=stats,
    )
    assert good.get_throughput_ops == 500.0
    assert good.errors_total == 0

    bad = LoadResult(
        mode="closed", clients=1, pipeline=1, requested_rate=None,
        measured_seconds=2.0, put=VerbStats(), get=VerbStats(),
    )
    bad.get.record_error("boom")
    assert bad.errors_total == 1 and bad.error_rate == 1.0
    assert bad.get.error_samples == ["boom"]

    with pytest.raises(ValueError):
        LoadSpec(endpoints=[])
    with pytest.raises(ValueError):
        LoadSpec(endpoints=[("h", 1)], get_fraction=1.5)
    with pytest.raises(ValueError):
        LoadSpec(endpoints=[("h", 1)], rate=0.0)
    round_trip = LoadResult(
        mode="open", clients=2, pipeline=4, requested_rate=100.0,
        measured_seconds=1.0, put=VerbStats(), get=stats, shed=3,
    ).to_dict()
    assert round_trip["shed"] == 3
    assert round_trip["get"]["ops"] == 1000
