"""Live-node observability: /metrics over HTTP, status metrics, and the
cross-mode (live vs simulated) consistency acceptance check.

The acceptance test boots the same 5-node topology twice -- once as a
real localnet over TCP, once in the simulator with a
:class:`~repro.obs.TraceBridge` attached -- drives remote lookups
through both, and asserts the two modes expose the *same* metric
catalogue with overlapping lookup-hop distributions.
"""

from __future__ import annotations

import asyncio
import json
import logging
import socket
import struct

from repro.obs import CONTENT_TYPE_PROM, MetricsRegistry, TraceBridge
from repro.runtime import (
    ClientConnection,
    ClientGet,
    ClientPut,
    ClientStatus,
    LocalNet,
    acall,
)
from repro.runtime.aio_transport import AioTransport
from repro.runtime.client import runtime_codec
from repro.runtime.codec import WIRE_VERSION, pack_endpoint

from .conftest import build_system


async def _http_get(host: str, port: int, path: str):
    """Minimal HTTP client: (status, headers, body) for one request."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(f"GET {path} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode())
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), 10)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (OSError, ConnectionError):
            pass
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = lines[0].split(" ", 1)[1]
    headers = dict(line.split(": ", 1) for line in lines[1:])
    return status, headers, body


def _counter_total(snapshot, name: str, **label_filter) -> float:
    fam = snapshot.get(name)
    if not fam:
        return 0.0
    total = 0.0
    for s in fam["samples"]:
        if all(s["labels"].get(k) == v for k, v in label_filter.items()):
            total += s["value"]
    return total


def _hop_support(snapshot) -> set:
    """Bucket upper bounds with non-zero mass in the hops histogram."""
    fam = snapshot.get("repro_lookup_hops")
    if not fam or not fam["samples"]:
        return set()
    support = set()
    for s in fam["samples"]:
        bounds = list(s["buckets"]) + [float("inf")]
        for bound, c in zip(bounds, s["counts"]):
            if c:
                support.add(bound)
    return support


async def _drive_remote_lookups(net: LocalNet, n_keys: int = 6) -> list:
    """Put keys, then read each back from a node that doesn't own it."""
    putter = net.nodes[0]
    origins = []
    for i in range(n_keys):
        key = f"xmode-{i}.dat"
        reply = await acall(
            putter.host, putter.port, ClientPut(key=key, value=f"v{i}")
        )
        assert reply.ok, reply.error
    await asyncio.sleep(0.3)  # let StoreRequests land on their owners
    for i in range(n_keys):
        key = f"xmode-{i}.dat"
        remote = net.node_for_key(key, putter)
        reply = await acall(remote.host, remote.port, ClientGet(key=key), timeout=15)
        assert reply.ok, reply.error
        assert reply.payload["value"] == f"v{i}"
        origins.append(remote)
    return origins


def _sim_registry_for_same_topology(n_keys: int = 6) -> MetricsRegistry:
    """The simulator's scrape for the live test's 2t+3s topology."""
    system = build_system(p_s=0.6, n_peers=5, heterogeneity_aware=False,
                          heartbeats_enabled=False)
    assert len(system.t_peers()) == 2 and len(system.s_peers()) == 3
    reg = MetricsRegistry()
    bridge = TraceBridge(system.trace, reg)
    peers = [p.address for p in system.alive_peers()]
    system.populate(
        [(peers[0], f"xmode-{i}.dat", f"v{i}") for i in range(n_keys)]
    )
    system.run_lookups(
        [(peers[(i % (len(peers) - 1)) + 1], f"xmode-{i}.dat") for i in range(n_keys)]
    )
    bridge.detach()
    return reg


def test_live_nodes_serve_metrics_and_match_simulator() -> None:
    async def scenario() -> None:
        net = LocalNet(t_peers=2, s_peers=3, seed=23)
        await net.start(join_timeout=20)
        await net.wait_converged(timeout=20)
        try:
            await _drive_remote_lookups(net)

            daemons = [net.bootstrap, *net.nodes]
            snapshots = []
            for daemon in daemons:
                # Prometheus text endpoint: well-formed, right content
                # type, and the frame counter moved on every daemon.
                status, headers, body = await _http_get(
                    daemon.host, daemon.port, "/metrics"
                )
                assert status == "200 OK"
                assert headers["Content-Type"] == CONTENT_TYPE_PROM
                text = body.decode("utf-8")
                assert "# TYPE repro_frames_total counter" in text
                assert 'repro_frames_total{' in text

                # JSON variant parses back to a registry snapshot.
                status, _, body = await _http_get(
                    daemon.host, daemon.port, "/metrics.json"
                )
                assert status == "200 OK"
                snap = json.loads(body)
                assert _counter_total(snap, "repro_frames_total") > 0
                assert _counter_total(snap, "repro_frames_total", direction="rx") > 0
                assert _counter_total(snap, "repro_frames_total", direction="tx") > 0
                assert snap["repro_uptime_seconds"]["samples"][0]["value"] > 0
                snapshots.append(snap)

                # Liveness endpoint.
                status, _, body = await _http_get(
                    daemon.host, daemon.port, "/healthz"
                )
                assert status == "200 OK"
                health = json.loads(body)
                assert health["ok"] is True
                assert health["codec_version"] == WIRE_VERSION
                assert health["uptime_s"] >= 0

            for node, snap in zip(net.nodes, snapshots[1:]):
                assert snap["repro_node_joined"]["samples"][0]["value"] == 1.0

            # The remote gets left lookup evidence: merged across peers,
            # completed lookups and their hop histogram are non-empty,
            # with every observed hop count above zero (they crossed
            # sockets to a different segment).
            merged_lookups = sum(
                _counter_total(s, "repro_lookups_total", status="success")
                for s in snapshots
            )
            assert merged_lookups >= 6
            live_support = set()
            for s in snapshots:
                live_support |= _hop_support(s)
            assert live_support, "no lookup hop observations on any node"
            assert max(live_support) >= 1  # at least one multi-hop lookup

            # HTTP scrapes must not have disturbed the framed protocol
            # sharing the same listen ports.
            reply = await acall(
                net.nodes[0].host, net.nodes[0].port, ClientStatus()
            )
            assert reply.ok and reply.payload["joined"]

            # Cross-mode: the simulator run of the same 2t+3s topology
            # produces the same catalogue and an overlapping hop
            # distribution.
            sim_reg = _sim_registry_for_same_topology()
            sim_snap = sim_reg.snapshot()
            live_names = set().union(*(set(s) for s in snapshots))
            missing = set(sim_snap) - live_names
            assert not missing, f"sim metrics absent from live nodes: {missing}"
            sim_support = _hop_support(sim_snap)
            assert sim_support, "simulator produced no hop observations"
            # Same bucket ladder on both sides, and the occupied ranges
            # overlap (a handful of lookups won't land in identical
            # buckets, but both modes must agree on the scale: a live
            # run measuring 1-2 hops is consistent with a sim run
            # measuring 0-3, not with one measuring 20+).
            assert min(live_support) <= max(sim_support)
            assert min(sim_support) <= max(live_support), (
                f"hop distributions do not overlap: "
                f"live={sorted(live_support)} sim={sorted(sim_support)}"
            )
        finally:
            await net.stop()

    asyncio.run(scenario())


def test_status_verb_carries_uptime_version_and_optional_metrics() -> None:
    async def scenario() -> None:
        net = LocalNet(t_peers=1, s_peers=1, seed=31)
        await net.start(join_timeout=20)
        try:
            node = net.nodes[0]
            plain = await acall(node.host, node.port, ClientStatus())
            assert plain.ok
            assert plain.payload["codec_version"] == WIRE_VERSION
            # one wire generation: nothing to accept or observe per peer
            assert set(plain.payload["codec"]) == {"version", "tx_connections"}
            assert plain.payload["uptime_s"] >= 0
            assert "metrics" not in plain.payload

            rich = await acall(
                node.host, node.port, ClientStatus(include_metrics=True)
            )
            assert rich.ok
            metrics = rich.payload["metrics"]
            assert _counter_total(metrics, "repro_frames_total") > 0

            boot = await acall(
                net.bootstrap.host,
                net.bootstrap.port,
                ClientStatus(include_metrics=True),
            )
            assert boot.ok
            assert boot.payload["codec_version"] == WIRE_VERSION
            assert "repro_frames_total" in boot.payload["metrics"]
        finally:
            await net.stop()

    asyncio.run(scenario())


def test_transport_drop_accounting_and_single_warning(caplog) -> None:
    caplog.set_level(logging.WARNING, logger="repro.runtime.transport")

    class _Origin:
        address = pack_endpoint("127.0.0.1", 65000)
        alive = True

        def receive(self, msg) -> None:  # pragma: no cover - never local
            pass

    # A port that is certainly closed: bind, read it, release it.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_port = probe.getsockname()[1]
    probe.close()
    dst = pack_endpoint("127.0.0.1", dead_port)

    async def scenario() -> None:
        reg = MetricsRegistry()
        transport = AioTransport(
            runtime_codec(),
            asyncio.get_running_loop(),
            op_timeout=2.0,
            max_retries=2,
            backoff_base=0.01,
            registry=reg,
        )
        origin = _Origin()
        try:
            for _ in range(3):
                transport.send(origin, dst, ClientGet(key="doomed"))
            deadline = asyncio.get_running_loop().time() + 10
            while transport.dropped_by_dest.get(dst, 0) < 3:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.02)

            # Destination is now marked failed: further sends drop
            # immediately and are counted, not logged again.
            assert transport.send(origin, dst, ClientGet(key="late")) is False
            assert transport.dropped_by_dest[dst] == 4
            assert not transport.is_reachable(dst)

            snap = reg.snapshot()
            endpoint = f"127.0.0.1:{dead_port}"
            assert (
                _counter_total(snap, "repro_frames_dropped_total", dest=endpoint)
                == 4.0
            )
        finally:
            await transport.aclose()

    asyncio.run(scenario())

    warnings = [
        r for r in caplog.records
        if r.levelno == logging.WARNING and "unreachable" in r.getMessage()
    ]
    assert len(warnings) == 1, [r.getMessage() for r in warnings]
    assert f"127.0.0.1:{dead_port}" in warnings[0].getMessage()


def test_transport_counts_reconnects_in_registry() -> None:
    async def scenario() -> None:
        net = LocalNet(t_peers=2, s_peers=1, seed=37)
        await net.start(join_timeout=20)
        try:
            # Abort every pooled inbound connection; the next frame on
            # each outbound pool reconnects and must be counted.
            for daemon in [net.bootstrap, *net.nodes]:
                for inbound in list(daemon._inbound):
                    inbound.abort()
            await asyncio.sleep(0.1)
            putter = net.nodes[0]
            reply = await acall(
                putter.host, putter.port, ClientPut(key="rc", value="x")
            )
            assert reply.ok
            await asyncio.sleep(0.5)

            snaps = net.metrics_snapshots()
            total = sum(
                _counter_total(s, "repro_transport_reconnects_total")
                for s in snaps.values()
            )
            assert total > 0, "no reconnect was recorded anywhere"
            for daemon in [net.bootstrap, *net.nodes]:
                snap = snaps[f"{daemon.host}:{daemon.port}"]
                assert (
                    sum(daemon.transport.reconnects_by_dest.values())
                    == _counter_total(snap, "repro_transport_reconnects_total")
                )
        finally:
            await net.stop()

    asyncio.run(scenario())


def test_garbage_inbound_is_counted_closed_and_contained(caplog) -> None:
    """An oversized or undecodable frame closes only its own connection,
    counts in repro_inbound_rejected_total{reason} and logs one WARNING
    per remote endpoint; the node keeps serving everyone else."""
    caplog.set_level(logging.WARNING, logger="repro.runtime.transport")

    async def scenario() -> None:
        net = LocalNet(t_peers=1, s_peers=0, seed=41)
        await net.start(join_timeout=20)
        try:
            node = net.nodes[0]
            async with ClientConnection(node.host, node.port) as bystander:
                assert (await bystander.request(ClientStatus())).ok
                garbage = {
                    "oversized": struct.pack("!I", 0x7FFFFFFF),
                    "undecodable": struct.pack("!I", 3) + b"\x09\x09\x09",
                }
                for reason, data in garbage.items():
                    reader, writer = await asyncio.open_connection(node.host, node.port)
                    writer.write(data)
                    try:
                        assert await asyncio.wait_for(reader.read(), 10) == b""
                    except ConnectionResetError:
                        pass  # closed either way
                    writer.close()
                    snap = node.registry.snapshot()
                    assert _counter_total(
                        snap, "repro_inbound_rejected_total", reason=reason
                    ) == 1.0
                # The bystander's connection never noticed.
                assert (await bystander.request(ClientStatus())).ok
        finally:
            await net.stop()

    asyncio.run(scenario())
    warnings = [r.getMessage() for r in caplog.records if "rejected" in r.getMessage()]
    assert len(warnings) == 2, warnings
    assert "oversized" in warnings[0] and "undecodable" in warnings[1]
