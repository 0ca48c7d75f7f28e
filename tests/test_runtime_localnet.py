"""Live-runtime integration: a real 5-node localnet over TCP sockets.

These tests boot 1 bootstrap daemon + 2 t-peers + 2 s-peers as asyncio
tasks in this process, with every protocol frame crossing a real
localhost socket.  They assert the ISSUE's acceptance criteria:
convergence against the bootstrap directory, put/get for a key owned by
a *remote* segment, survival of an injected connection drop via the
transport's retry/backoff, and teardown with no leaked tasks.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.overlay.messages import Hello
from repro.runtime import ClientGet, ClientPut, ClientStatus, LocalNet, acall
from repro.runtime.localnet import fast_config
from repro.runtime.loop_engine import LoopEngine


async def _booted_net() -> LocalNet:
    net = LocalNet(t_peers=2, s_peers=2, seed=11)
    await net.start(join_timeout=20)
    await net.wait_converged(timeout=20)
    return net


async def _put_then_remote_get(net: LocalNet, key: str, value: str) -> None:
    putter = net.nodes[0]
    reply = await acall(putter.host, putter.port, ClientPut(key=key, value=value))
    assert reply.ok, reply.error
    # Read the key back from a node whose own segment does NOT hold it,
    # so the lookup must traverse the t-network over the sockets.
    remote = net.node_for_key(key, putter)
    await asyncio.sleep(0.3)  # let the StoreRequest reach the owner
    reply = await acall(remote.host, remote.port, ClientGet(key=key), timeout=15)
    assert reply.ok, reply.error
    assert reply.payload["value"] == value


def _assert_no_leftover_tasks() -> None:
    leftovers = [t for t in asyncio.all_tasks() if t is not asyncio.current_task()]
    assert not leftovers, f"leaked tasks: {leftovers}"


def test_localnet_converges_and_serves_remote_get() -> None:
    async def scenario() -> None:
        net = await _booted_net()
        try:
            # Convergence re-checked against the directory verb too.
            status = await acall(
                net.bootstrap.host, net.bootstrap.port, ClientStatus()
            )
            assert status.ok
            assert status.payload["t_count"] == 2
            assert status.payload["s_count"] == 2
            ring_addrs = {addr for _pid, addr in status.payload["ring"]}
            live_t = {n.peer.address for n in net.nodes if n.peer.role == "t"}
            assert ring_addrs == live_t

            await _put_then_remote_get(net, "alpha.txt", "first value")

            # Every node answers the status verb over its own socket.
            for node in net.nodes:
                s = await acall(node.host, node.port, ClientStatus())
                assert s.ok and s.payload["joined"]
        finally:
            await net.stop()
        _assert_no_leftover_tasks()

    asyncio.run(scenario())


def test_localnet_survives_connection_drop() -> None:
    async def scenario() -> None:
        net = await _booted_net()
        try:
            await _put_then_remote_get(net, "beta.txt", "before the drop")

            # Inject the failure: hard-abort every established inbound
            # connection on every daemon.  All pooled outbound
            # connections in the net are now dead; the next send on each
            # must detect the closed transport and reconnect through the
            # retry/backoff path.
            dropped = 0
            for daemon in [net.bootstrap, *net.nodes]:
                for inbound in list(daemon._inbound):
                    inbound.abort()
                    dropped += 1
            assert dropped > 0, "expected live pooled connections to drop"
            await asyncio.sleep(0.1)

            await _put_then_remote_get(net, "gamma.txt", "after the drop")
            # The drop must not have poisoned reachability bookkeeping.
            for node in net.nodes:
                assert node.transport.is_reachable(net.bootstrap.address)
        finally:
            await net.stop()
        _assert_no_leftover_tasks()

    asyncio.run(scenario())


def test_every_send_is_delivered_or_dropped() -> None:
    """The simulator's accounting, live: ``messages_sent`` counts every
    attempt and each attempt ends delivered or dropped, summed over all
    daemons once the net is quiet -- including sends to a stopped node
    (before and after its link is marked failed), from a stopped node,
    and frames that reach a crashed actor over TCP."""

    async def scenario() -> None:
        net = await _booted_net()
        daemons = [net.bootstrap, *net.nodes]
        a, b, _, gone = net.nodes
        loop = asyncio.get_running_loop()

        async def quiet_balance() -> int:
            """Σ sent - delivered - dropped, once it settles (or after 5 s)."""
            deadline = loop.time() + 5
            while True:
                balance = sum(
                    d.transport.messages_sent - d.transport.messages_delivered
                    - d.transport.messages_dropped
                    for d in daemons
                )
                if not balance or loop.time() > deadline:
                    return balance
                await asyncio.sleep(0.05)

        try:
            assert await quiet_balance() == 0
            await gone.stop()
            # Let links to it read the FIN first: a frame written into a
            # half-closed TCP connection is lost below any accounting.
            await asyncio.sleep(0.1)
            a.transport.send(a.peer, gone.address, Hello())
            assert await quiet_balance() == 0
            assert a.transport.dropped_by_dest[gone.address] == 1
            # The link is marked failed now: this one drops at once.
            assert a.transport.send(a.peer, gone.address, Hello()) is False
            assert await quiet_balance() == 0
            assert gone.transport.send(gone.peer, a.address, Hello()) is False
            assert await quiet_balance() == 0
            b.peer.alive = False  # crashed, but its socket still accepts
            dropped = b.transport.messages_dropped
            a.transport.send(a.peer, b.address, Hello())
            assert await quiet_balance() == 0
            assert b.transport.messages_dropped == dropped + 1
        finally:
            await net.stop()

    asyncio.run(scenario())


def test_localnet_clean_shutdown_is_idempotent() -> None:
    async def scenario() -> None:
        net = await _booted_net()
        await net.stop()
        await net.stop()  # second stop is a no-op, not an error
        _assert_no_leftover_tasks()
        assert net.nodes == [] and net.bootstrap is None

    asyncio.run(scenario())


def test_localnet_requires_a_t_peer() -> None:
    with pytest.raises(ValueError):
        LocalNet(t_peers=0, s_peers=3)


def test_fast_config_overrides() -> None:
    cfg = fast_config(lookup_timeout=123.0)
    assert cfg.lookup_timeout == 123.0
    assert cfg.hello_period == 100.0


def test_loop_engine_call_at_keeps_the_absolute_time() -> None:
    """The liveness watchdog arms at a stored deadline: the live handle
    carries that exact time and fires once the loop's clock reaches it."""

    async def scenario() -> None:
        engine = LoopEngine()
        fired = []
        due = engine.now + 20.0
        event = engine.call_at(due, lambda: fired.append(engine.now))
        assert event.time == due and event.pending
        await asyncio.sleep(0.1)
        assert not event.pending and len(fired) == 1
        assert fired[0] >= due - 0.001  # the loop's clock resolution, in ms
        engine.close()

    asyncio.run(scenario())
