"""Live swarm plane: put-file/get-file over a real localnet.

In-process daemons on real sockets, same pattern as the other runtime
integration tests: publish chunked content through one node, pull it
back through several others concurrently, and check that every piece
hash-verifies with zero integrity failures.  Also covers the disabled
gate (swarm is opt-in) and the non-manifest error path.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.runtime import (
    ClientConnection,
    ClientPut,
    ClientStatus,
    LocalNet,
    get_file,
    put_file,
)
from repro.runtime.localnet import fast_config

SWARM = dict(
    snetwork_style="bittorrent",
    swarm_piece_size=8192,
    swarm_request_timeout=400.0,
)


def test_put_file_get_file_roundtrip() -> None:
    async def scenario() -> None:
        net = LocalNet(t_peers=3, s_peers=5, seed=7,
                       config=fast_config(**SWARM))
        await net.start(join_timeout=30)
        await net.wait_converged(timeout=30)
        conns = []
        try:
            publisher, *others = net.nodes
            pub = await ClientConnection(
                publisher.host, publisher.port
            ).connect()
            conns.append(pub)

            data = bytes((i * 31 + i // 997) % 256 for i in range(300_000))
            reply = await put_file(pub, "blob", data, piece_size=8192,
                                   timeout=30.0)
            assert reply.payload["pieces"] == 37  # ceil(300000 / 8192)
            assert reply.payload["length"] == len(data)

            async def _fetch(node):
                conn = await ClientConnection(node.host, node.port).connect()
                conns.append(conn)
                return await get_file(conn, "blob", timeout=60.0)

            blobs = await asyncio.gather(*(_fetch(n) for n in others))
            assert all(blob == data for blob in blobs)

            # No piece failed verification anywhere in the cluster, and
            # the fetching daemons now hold (and serve) the content.
            seeds = 0
            for node in net.nodes:
                swarm = node.status_snapshot()["swarm"]
                assert swarm["integrity_failures"] == 0
                seeds += 1 if swarm["contents_held"] else 0
            assert seeds >= len(others)

            # The status verb reports the same counters over the wire.
            status = await pub.request(ClientStatus(), timeout=5.0)
            assert status.ok
            assert status.payload["swarm"]["enabled"] is True
            assert status.payload["swarm"]["integrity_failures"] == 0
        finally:
            for conn in conns:
                await conn.aclose()
            await net.stop()

    asyncio.run(scenario())


def test_swarm_disabled_gate() -> None:
    async def scenario() -> None:
        net = LocalNet(t_peers=2, s_peers=1, seed=3, config=fast_config())
        await net.start(join_timeout=30)
        await net.wait_converged(timeout=30)
        conn = None
        try:
            node = net.nodes[0]
            conn = await ClientConnection(node.host, node.port).connect()
            with pytest.raises(RuntimeError, match="disabled"):
                await put_file(conn, "blob", b"x" * 1000, piece_size=256,
                               timeout=10.0)
            with pytest.raises(RuntimeError, match="disabled"):
                await get_file(conn, "blob", timeout=10.0)
        finally:
            if conn is not None:
                await conn.aclose()
            await net.stop()

    asyncio.run(scenario())


def test_get_file_rejects_plain_values() -> None:
    async def scenario() -> None:
        net = LocalNet(t_peers=2, s_peers=2, seed=11,
                       config=fast_config(**SWARM))
        await net.start(join_timeout=30)
        await net.wait_converged(timeout=30)
        conn = None
        try:
            node = net.nodes[0]
            conn = await ClientConnection(node.host, node.port).connect()
            reply = await conn.request(
                ClientPut(key="plain", value="just a string"), timeout=10.0
            )
            assert reply.ok
            with pytest.raises(RuntimeError, match="manifest|chunked"):
                await get_file(conn, "plain", timeout=10.0)
        finally:
            if conn is not None:
                await conn.aclose()
            await net.stop()

    asyncio.run(scenario())
