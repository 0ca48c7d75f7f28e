"""Live failover: zero lost acknowledged writes across a t-peer crash.

The ISSUE's acceptance scenario, in-process: a real localnet at
``replication_factor=3, write_quorum=2``, a batch of quorum-acknowledged
puts, then an abrupt stop (no departure handshake -- the socket just
goes dead) of a t-peer that owns some of those keys.  Crash detection
must notice, the ring must repair, a successor must start serving the
crashed segment from its replica store, and **every** key the client
was told ``ok=True`` for must still be readable.  The promoted/absorbing
daemon's ``repro_failover_total`` must tick.

Slow by nature (real sockets, real heartbeat timers); marked ``live``
like the other runtime integration tests.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.runtime import ClientConnection, ClientGet, ClientPut, LocalNet
from repro.runtime.localnet import fast_config

REPLICATED = dict(
    replication_factor=3,
    write_quorum=2,
    replica_ack_timeout=500.0,
    replica_write_retries=1,
    replica_sync_period=500.0,
    heartbeats_enabled=True,
)


def _failover_total(net: LocalNet) -> float:
    total = 0.0
    for snapshot in net.metrics_snapshots().values():
        fam = snapshot.get("repro_failover_total")
        if fam:
            total += sum(s.get("value", 0.0) for s in fam.get("samples", ()))
    return total


async def _get_with_grace(
    conn: ClientConnection, key: str, deadline: float
) -> object:
    """Read ``key``, re-asking while the failover window is still open."""
    loop = asyncio.get_running_loop()
    while True:
        reply = await conn.request(ClientGet(key=key), timeout=8.0)
        if reply.ok:
            return reply.payload["value"]
        if loop.time() > deadline:
            return None
        await asyncio.sleep(0.5)


def test_acked_writes_survive_tpeer_crash() -> None:
    async def scenario() -> None:
        net = LocalNet(
            t_peers=4, s_peers=2, seed=21,
            config=fast_config(**REPLICATED),
        )
        await net.start(join_timeout=30)
        await net.wait_converged(timeout=30)
        conn = None
        try:
            t_nodes = [n for n in net.nodes if n.peer.role == "t"]
            victim = t_nodes[0]
            survivor = next(n for n in net.nodes if n is not victim)
            conn = await ClientConnection(
                survivor.host, survivor.port, retry=True
            ).connect()

            acked = {}
            for i in range(30):
                key, value = f"durable-{i}", f"payload-{i}"
                reply = await conn.request(
                    ClientPut(key=key, value=value), timeout=10.0
                )
                assert reply.ok, reply.error
                assert reply.payload.get("replicated") is True
                assert reply.payload.get("quorum", 0) >= 2
                acked[key] = value
            # The crash must actually take acknowledged data with it.
            owned = [
                k for k in acked
                if victim.peer.owns_locally(victim.peer.idspace.hash_key(k))
            ]
            assert owned, "victim owns none of the acked keys; reseed"

            failovers_before = _failover_total(net)
            # Abrupt stop: no TLeave/SLeave handshake, the listener and
            # every socket just die -- the wire-visible shape of SIGKILL.
            await victim.stop()

            # Let detection + ring repair + segment handoff play out
            # (heartbeat 100ms / neighbor timeout 350ms under fast_config).
            await asyncio.sleep(3.0)

            deadline = asyncio.get_running_loop().time() + 20.0
            lost = []
            for key, value in acked.items():
                got = await _get_with_grace(conn, key, deadline)
                if got != value:
                    lost.append((key, got))
            assert not lost, f"lost acknowledged writes: {lost}"

            assert _failover_total(net) > failovers_before
        finally:
            if conn is not None:
                await conn.aclose()
            await net.stop()

    asyncio.run(scenario())


def test_client_retry_survives_connection_loss() -> None:
    """Satellite: ``retry=True`` transparently re-runs an idempotent op
    after its connection dies mid-session; a put never retries."""

    async def scenario() -> None:
        net = LocalNet(t_peers=2, s_peers=1, seed=5, config=fast_config())
        await net.start(join_timeout=30)
        await net.wait_converged(timeout=30)
        conn = None
        try:
            node = net.nodes[0]
            conn = await ClientConnection(
                node.host, node.port, retry=True
            ).connect()
            reply = await conn.request(
                ClientPut(key="r1", value="v1"), timeout=10.0
            )
            assert reply.ok
            await asyncio.sleep(0.3)

            # Kill the client's inbound connection server-side.
            for inbound in list(node._inbound):
                inbound.abort()
            await asyncio.sleep(0.1)

            # The get fails over the dead socket, reconnects, retries.
            reply = await conn.request(ClientGet(key="r1"), timeout=10.0)
            assert reply.ok and reply.payload["value"] == "v1"

            # A put on a freshly-killed connection must NOT auto-retry.
            for inbound in list(node._inbound):
                inbound.abort()
            await asyncio.sleep(0.1)
            with pytest.raises(ConnectionError):
                await conn.request(ClientPut(key="r2", value="v2"), timeout=10.0)

            # The connection object is still usable for retried verbs.
            reply = await conn.request(ClientGet(key="r1"), timeout=10.0)
            assert reply.ok and reply.payload["value"] == "v1"

            # After an explicit close, retry never resurrects the socket.
            await conn.aclose()
            with pytest.raises(ConnectionError):
                await conn.request(ClientGet(key="r1"), timeout=5.0)
        finally:
            if conn is not None:
                await conn.aclose()
            await net.stop()

    asyncio.run(scenario())


def test_get_served_from_replica_store_during_window() -> None:
    """A read that lands on the owner inside the failover window -- key
    present only in ``peer.replicas``, not yet promoted into the
    database -- is served from the replica copy instead of failing."""

    async def scenario() -> None:
        net = LocalNet(
            t_peers=3, s_peers=2, seed=13,
            config=fast_config(**REPLICATED),
        )
        await net.start(join_timeout=30)
        await net.wait_converged(timeout=30)
        conn = None
        try:
            gateway = next(n for n in net.nodes if n.peer.role == "s")
            conn = await ClientConnection(gateway.host, gateway.port).connect()

            # Write through the normal quorum path, then find the owner.
            reply = await conn.request(
                ClientPut(key="windowed", value="survives"), timeout=10.0
            )
            assert reply.ok, reply.error
            owner = next(
                n for n in net.nodes
                if n.peer.owns_locally(n.peer.idspace.hash_key("windowed"))
            )
            assert owner.peer.database.get("windowed") is not None

            # Stage the failover window on the owner: the primary copy
            # is gone (as after an ownership handoff whose repair pull
            # has not landed) but the replica copy is present.
            item = owner.peer.database.get("windowed")
            owner.peer.database.delete("windowed")
            owner.peer.replicas.insert_item(item)

            reply = await conn.request(ClientGet(key="windowed"), timeout=10.0)
            assert reply.ok, reply.error
            assert reply.payload["value"] == "survives"
        finally:
            if conn is not None:
                await conn.aclose()
            await net.stop()

    asyncio.run(scenario())
