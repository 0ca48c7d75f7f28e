#!/usr/bin/env python
"""CI smoke test: live failover with zero lost acknowledged writes.

Boots a real multi-process cluster -- one ``repro serve`` bootstrap plus
seven ``repro node`` daemons, every one its own OS process -- at
replication_factor=3 / write_quorum=2, puts background load on it with
``repro bench-clients``, records a batch of acknowledged puts, then
SIGKILLs a t-peer mid-run.  After the ring repairs itself the test
asserts that every acknowledged write is still readable from a survivor
and that some survivor's ``repro_failover_total`` counter moved.

Exits 0 and prints PASS on success; any failure is a non-zero exit for
CI.  Run from the repo root:
``PYTHONPATH=src python scripts/failover_smoke.py``
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import sys
import time

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
sys.path.insert(0, SRC)

from repro.runtime import ClientConnection, ClientGet, ClientPut, ClientStatus  # noqa: E402

N_NODES = 7
TRACKED_PUTS = 40
FAILOVER_PUTS = 20

# Same overrides for the server and every node: replicate each segment to
# 3 peers, ack after 2 copies, and run the failure detector fast enough
# that detection + election + repair all land well inside the CI timeout
# (a 200 ms HELLO period declares a silent neighbor dead after 700 ms and
# gives elections 600 ms).
OVERRIDES = [
    "replication_factor=3",
    "write_quorum=2",
    "replica_ack_timeout=500",
    "replica_write_retries=1",
    "replica_sync_period=1000",
    "heartbeats_enabled=true",
    "hello_period=200",
    "join_retry_timeout=1500",
    "lookup_timeout=5000",
]
# The server prints just host:port; nodes append "(role=X, p_id=N)".
LISTEN_RE = re.compile(
    r"listening on ([\d.]+):(\d+)(?: \(role=(\w), p_id=(-?\d+)\))?"
)


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    return env


async def spawn(*argv: str) -> asyncio.subprocess.Process:
    return await asyncio.create_subprocess_exec(
        sys.executable, "-m", "repro", *argv,
        stdout=asyncio.subprocess.PIPE,
        stderr=asyncio.subprocess.STDOUT,
        env=cli_env(),
    )


async def read_listen_line(proc, timeout: float = 30.0):
    """Wait for a daemon's "listening on ..." line; return (host, port, role)."""
    deadline = time.monotonic() + timeout
    lines = []
    while time.monotonic() < deadline:
        try:
            raw = await asyncio.wait_for(
                proc.stdout.readline(), timeout=deadline - time.monotonic()
            )
        except asyncio.TimeoutError:
            break
        if not raw:
            break
        line = raw.decode().rstrip()
        lines.append(line)
        m = LISTEN_RE.search(line)
        if m:
            return m.group(1), int(m.group(2)), m.group(3)
    raise RuntimeError(f"daemon never announced its endpoint: {lines}")


async def wait_directory(endpoint: str, want: int, timeout: float = 60.0) -> None:
    host, port = endpoint.rsplit(":", 1)
    deadline = time.monotonic() + timeout
    last = None
    while time.monotonic() < deadline:
        try:
            conn = await ClientConnection(host, int(port)).connect()
            try:
                reply = await conn.request(ClientStatus(), timeout=5.0)
            finally:
                await conn.aclose()
            if reply.ok:
                last = reply.payload
                if last["t_count"] + last["s_count"] >= want:
                    return
        except (ConnectionError, asyncio.TimeoutError):
            pass
        await asyncio.sleep(0.3)
    raise RuntimeError(f"cluster never reached {want} members: {last}")


async def scrape_metrics(host: str, port: int) -> str:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(f"GET /metrics HTTP/1.1\r\nHost: {host}\r\n\r\n".encode())
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout=10)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (OSError, ConnectionError):
            pass
    return raw.partition(b"\r\n\r\n")[2].decode("utf-8")


async def failover_total(survivors) -> float:
    total = 0.0
    for host, port, _role in survivors:
        try:
            text = await scrape_metrics(host, port)
        except (OSError, ConnectionError, asyncio.TimeoutError):
            continue
        for line in text.splitlines():
            if line.startswith("repro_failover_total"):
                total += float(line.rsplit(" ", 1)[1])
    return total


async def main() -> None:
    procs = []
    set_args = [arg for kv in OVERRIDES for arg in ("--set", kv)]
    try:
        server = await spawn(
            "serve", "--host", "127.0.0.1", "--port", "0",
            "--ps", "0.3", "--seed", "7", *set_args,
        )
        procs.append(server)
        host, port, _ = await read_listen_line(server)
        bootstrap = f"{host}:{port}"
        print(f"bootstrap at {bootstrap}", flush=True)

        nodes = []  # (proc, host, port, role)
        for i in range(N_NODES):
            proc = await spawn(
                "node", "--join", bootstrap, "--port", "0",
                "--seed", str(100 + i), *set_args,
            )
            procs.append(proc)
            n_host, n_port, role = await read_listen_line(proc)
            nodes.append((proc, n_host, n_port, role))
            print(f"node {i} up at {n_host}:{n_port} role={role}", flush=True)
        await wait_directory(bootstrap, N_NODES)

        t_nodes = [n for n in nodes if n[3] == "t"]
        assert len(t_nodes) >= 2, "need at least two t-peers to kill one"
        victim = t_nodes[-1]
        survivors = [
            (n[1], n[2], n[3]) for n in nodes if n is not victim
        ]
        target = next(s for s in survivors if s[2] == "t")
        print(f"victim {victim[1]}:{victim[2]}, client target "
              f"{target[0]}:{target[1]}", flush=True)

        # Background load across the survivors while we track our own puts.
        bench = await spawn(
            "bench-clients",
            *[a for s in survivors[:3] for a in ("--node", f"{s[0]}:{s[1]}")],
            "--clients", "3", "--pipeline", "4", "--duration", "8",
            "--warmup", "0.2", "--get-fraction", "0.7",
            "--keyspace", "64", "--timeout", "15", "--seed", "3",
        )
        procs.append(bench)
        await asyncio.sleep(1.0)

        conn = await ClientConnection(target[0], target[1], retry=True).connect()
        acked = {}
        for i in range(TRACKED_PUTS):
            key, value = f"tracked-{i}", f"payload-{i}"
            reply = await conn.request(ClientPut(key=key, value=value), timeout=15.0)
            assert reply.ok, f"put {key} failed: {reply.error}"
            acked[key] = value
        print(f"{len(acked)} writes acknowledged; killing victim", flush=True)

        before = await failover_total(survivors)
        os.kill(victim[0].pid, signal.SIGKILL)
        await victim[0].wait()

        # Keep writing through the failover window -- only acknowledged
        # puts join the must-survive set; refused ones are allowed.
        accepted_during = 0
        for i in range(FAILOVER_PUTS):
            key, value = f"during-{i}", f"payload-{i}"
            try:
                reply = await conn.request(
                    ClientPut(key=key, value=value), timeout=15.0
                )
            except (ConnectionError, asyncio.TimeoutError):
                continue
            if reply.ok:
                acked[key] = value
                accepted_during += 1
            await asyncio.sleep(0.1)
        print(f"{accepted_during}/{FAILOVER_PUTS} writes acked during "
              "failover; waiting for repair", flush=True)
        await asyncio.sleep(4.0)

        lost = dict(acked)
        deadline = time.monotonic() + 30.0
        while lost and time.monotonic() < deadline:
            for key in list(lost):
                try:
                    reply = await conn.request(ClientGet(key=key), timeout=10.0)
                except (ConnectionError, asyncio.TimeoutError):
                    break
                if reply.ok and reply.payload["value"] == lost[key]:
                    del lost[key]
            if lost:
                await asyncio.sleep(0.5)
        assert not lost, (
            f"{len(lost)}/{len(acked)} acknowledged writes lost: "
            f"{sorted(lost)[:5]}"
        )
        print(f"all {len(acked)} acknowledged writes survived", flush=True)

        after = await failover_total(survivors)
        assert after > before, (
            f"repro_failover_total did not move ({before} -> {after})"
        )
        print(f"repro_failover_total {before} -> {after}", flush=True)

        await conn.aclose()
        bench_out, _ = await asyncio.wait_for(bench.communicate(), timeout=60)
        print("bench-clients rc:", bench.returncode, flush=True)
        sys.stdout.write(bench_out.decode()[-400:] + "\n")
        print("PASS")
    finally:
        for proc in procs:
            if proc.returncode is None:
                proc.terminate()
        for proc in procs:
            if proc.returncode is None:
                try:
                    await asyncio.wait_for(proc.wait(), timeout=10)
                except asyncio.TimeoutError:
                    proc.kill()


if __name__ == "__main__":
    asyncio.run(main())
