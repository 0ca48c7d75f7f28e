"""Child side of the benchmark: one repetition of one workload per process.

``run.py`` starts ``python bench/workloads.py '<json spec>'`` once per
repetition -- users pay cold caches and a fresh heap on every cell, so
the benchmark does too -- and reads one JSON line back:

    setup_s     child spawn -> first timed call (imports, tmp dirs, net boot ...)
    measured    the workload's native end-to-end figures, one value per
                measured window (live) or one in all (a sim cell, a sweep)
    samples     sample count behind each of those values
    rss_mb      ru_maxrss of this process, max with its own children
    layers      per-layer numbers: exact counts from public state always,
                span times only when the spec asks for tracing
    digest      hash of the outputs that must repeat exactly (sim / sweep)
    attempted / failed / errors   operation counts and gate violations

Everything is driven through public entry points of ``repro``; the
client driver for the live workloads lives here, not in
``repro.loadgen``, so a refactor under ``src/`` cannot move the ruler.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import math
import random
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"

SIM = ("sim_paper", "sim_bulk", "sim_shard2")
WORKLOADS = SIM + ("sweep_quick", "live_read", "live_write")

KEYSPACE = 1024
SAT_INFLIGHT = 32  # phase B; everything shares one event loop, no extra threads
OPEN_RATE = 2000.0  # phase C, ops/s
MIN_BEYOND = 10  # a percentile is reported only with this many samples beyond it
P99_SAMPLES = 1100  # a window runs on until each reported verb has this many
LIVE_WINDOWS = 3  # measured windows per phase; the metric is their median


def now() -> float:
    """CLOCK_MONOTONIC: one time base for the parent's spawn stamp and the child."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank q-th percentile; None unless MIN_BEYOND samples lie beyond it.

    The median (q = 50) stands on any non-empty sample.
    """
    n = len(samples)
    if n == 0 or (q > 50.0 and n * (100.0 - q) / 100.0 < MIN_BEYOND):
        return None
    return sorted(samples)[max(0, math.ceil(n * q / 100.0) - 1)]


# ----------------------------------------------------------------------
# Simulator workloads
# ----------------------------------------------------------------------
def sim_cell(workload: str, seed: int) -> Tuple[Any, Any, Dict[str, Any]]:
    from repro.core.config import HybridConfig
    from repro.experiments.common import Scale

    if workload == "sim_paper":
        return HybridConfig(p_s=0.7), Scale.paper(seed), {}
    if workload == "sim_bulk":  # Scale.large() x 0.2
        scale = Scale(n_peers=20_000, n_keys=4_000, n_lookups=1_000,
                      wave_size=500, bulk_build=True, seed=seed)
        return HybridConfig(p_s=0.7, ring_routing="finger"), scale, {}
    if workload == "sim_shard2":
        # shards_strict: a silent single-process fallback must not be timed.
        return HybridConfig(p_s=0.3), Scale.quick(seed), dict(
            shards=2, shard_backend="shm", shards_strict=True)
    raise ValueError(workload)


def run_sim(spec: Dict[str, Any], tracer: Any) -> Dict[str, Any]:
    from repro.experiments.common import run_cell

    config, scale, kwargs = sim_cell(spec["workload"], spec["seed"])
    if spec.get("identity"):  # sim_shard2's single-process reference
        kwargs = {}
    out: Dict[str, Any] = {}
    setup_s = now() - spec["t0"]
    t0 = time.perf_counter()
    result = run_cell(config, scale, system_out=out, **kwargs)
    cell_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()  # reading state below must not add spans

    # A lookup the protocol gives up on (flood TTL) is a simulated outcome,
    # pinned by the digest like every other statistic; the simulator fails
    # an operation only when a lookup it issued never resolves either way.
    unresolved = scale.n_lookups - result.successes - result.failures
    errors = [f"{unresolved} of {scale.n_lookups} lookups never resolved"] if unresolved else []
    layers: Dict[str, float] = {}
    if "system" in out:
        layers.update(system_counts([out["system"]]))
    else:
        info = out["shard_info"]
        layers.update(shard_layers(info))
        if info["backend"] != "shm" or info["mode"] != "fork":
            errors.append(f"sharded run used {info['mode']}/{info['backend']}")
        if info["ipc"]["pickled_fallbacks"]:
            errors.append(f"{info['ipc']['pickled_fallbacks']} pickled IPC fallbacks")
    if tracer is not None:
        layers.update(sim_span_layers(tracer, layers))
        layers["core.hybrid.phase_sum_ratio"] = tracer.total_s(
            "core.hybrid.init", "core.hybrid.build", "core.hybrid.populate",
            "core.hybrid.lookups", "core.hybrid.stats") / cell_s
    return {
        "setup_s": setup_s,
        "measured": {"cell_s": [cell_s]},
        "samples": {"cell_s": 1},
        "attempted": scale.n_lookups,
        "failed": abs(unresolved),
        "errors": errors,
        "layers": layers,
        "digest": _digest(dataclasses.asdict(result), layers["sim.engine.events"]),
        "result": dataclasses.asdict(result),
    }


def system_counts(systems: List[Any]) -> Dict[str, float]:
    """Exact counters read from built systems' public state."""
    stats = [s.query_stats() for s in systems]
    succeeded = sum(q.successes for q in stats)
    contacts = sum(q.connum for q in stats)
    return {
        "net.topology.nodes": sum(s.topology.n for s in systems),
        "overlay.peer.peers_built": sum(len(s.peers) for s in systems),
        "sim.engine.events": sum(s.engine.events_executed for s in systems),
        "overlay.transport.messages_sent": sum(s.transport.messages_sent for s in systems),
        "overlay.transport.messages_dropped": sum(s.transport.messages_dropped for s in systems),
        "core.lookup.started": sum(q.total for q in stats),
        "core.lookup.contacts": contacts,
        "core.lookup.duplicate_contacts": sum(q.duplicate_contacts for q in stats),
        "core.lookup.succeeded": succeeded,
        "core.lookup.failed": sum(q.failures for q in stats),
        "core.lookup.contacts_per_success": contacts / succeeded if succeeded else 0.0,
    }


def shard_layers(info: Dict[str, Any]) -> Dict[str, float]:
    """Forked workers cannot hand spans back: shard.* comes from ``info_out``."""
    stats = info["registry"].stats()
    rounds = info["window_rounds"]
    events = info["lookup_events_per_shard"]
    phases = {p["phase"]: p["wall_seconds"] for p in info["memory"]["parent_phases"]}
    ipc = info["ipc"]
    return {
        "sim.engine.events": info["events_total"],
        "overlay.transport.messages_sent": sum(info["messages_sent"]),
        "core.lookup.started": stats.total,
        "core.lookup.contacts": stats.connum,
        "core.lookup.duplicate_contacts": stats.duplicate_contacts,
        "core.lookup.succeeded": stats.successes,
        "core.lookup.failed": stats.failures,
        "core.lookup.contacts_per_success":
            stats.connum / stats.successes if stats.successes else 0.0,
        "shard.runner.build_s": info["build_wall_seconds"],
        "shard.runner.lookup_s": info["lookup_wall_seconds"],
        "shard.runner.merge_s": phases.get("merge", 0.0),
        "shard.sync.window_rounds": rounds,
        "shard.sync.waves": info["waves"],
        "shard.sync.us_per_window": info["lookup_wall_seconds"] / rounds * 1e6,
        "shard.sync.events_per_window": sum(events) / rounds,
        "shard.ipc.data_frames": ipc["data_frames"],
        "shard.ipc.data_bytes": ipc["data_bytes"],
        "shard.ipc.ctrl_bytes": ipc["ctrl_bytes"],
        "shard.ipc.spilled_frames": ipc["spilled_frames"],
        "shard.ipc.pickled_fallbacks": ipc["pickled_fallbacks"],
        "shard.worker.events_max": max(events),
        "shard.worker.events_min": min(events),
        "shard.worker.imbalance": max(events) / (sum(events) / len(events)),
        "shard.worker.rss_mb_max": max(info["peak_rss_kb"]["workers"]) / 1024.0,
    }


def sim_span_layers(tracer: Any, counts: Dict[str, float]) -> Dict[str, float]:
    """Per-layer times and call counts of the simulator stack, from spans."""
    t = tracer
    fingers_s = t.total_s("core.hybrid.install_fingers")
    events = counts.get("sim.engine.events", 0)
    built = [s for s in t.spans if s["name"] == "core.hybrid.build"]
    grown_kb = sum(s["rss1_kb"] - s["rss0_kb"] for s in built)
    peers = counts.get("overlay.peer.peers_built", 0)
    return {
        "net.topology.generate_s": t.total_s("net.topology.generate"),
        "net.routing.make_router_s": t.total_s("net.routing.make_router"),
        "net.routing.latency_row_calls": t.calls("net.routing.latency_row"),
        "net.routing.latency_row_s": t.total_s("net.routing.latency_row"),
        "core.hybrid.init_s": t.total_s("core.hybrid.init"),
        "core.hybrid.build_s": t.total_s("core.hybrid.build") - fingers_s,
        "core.hybrid.install_fingers_s": fingers_s,
        "core.hybrid.populate_s": t.total_s("core.hybrid.populate"),
        "core.hybrid.lookups_s": t.total_s("core.hybrid.lookups"),
        "core.hybrid.stats_s": t.total_s("core.hybrid.stats"),
        "overlay.peer.bytes_per_peer": grown_kb * 1024.0 / peers if peers else 0.0,
        "sim.engine.run_s": t.total_s("sim.engine.run"),
        "sim.engine.self_s": t.self_s("sim.engine.run"),
        "sim.engine.us_per_event":
            t.total_s("sim.engine.run") / events * 1e6 if events else 0.0,
        "sim.engine.cancellable_events": t.calls("sim.engine.call_at"),
        "sim.timers.timer_starts": t.calls("sim.timers.start"),
        "sim.timers.timer_cancels": t.calls("sim.timers.cancel"),
        "overlay.transport.send_calls": t.calls("overlay.transport.send"),
        "overlay.transport.send_many_calls": t.calls("overlay.transport.send_many"),
        "overlay.transport.self_s":
            t.self_s("overlay.transport.send", "overlay.transport.send_many"),
        "core.hybridpeer.receive_calls": t.calls("core.hybridpeer.receive"),
        "core.hybridpeer.self_s": t.self_s("core.hybridpeer.receive"),
        "core.lookup.self_s": t.self_s(
            "core.lookup.start", "core.lookup.contact", "core.lookup.succeed",
            "core.lookup.fail", "core.lookup.stats"),
    }


def _digest(*parts: Any) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Sweep workload
# ----------------------------------------------------------------------
def run_sweep(spec: Dict[str, Any], tracer: Any) -> Dict[str, Any]:
    from repro.exec import CellCache, CellExecutor
    from repro.experiments import fig5_failure, fig6_latency, table2_connum
    from repro.experiments.common import Scale

    scale = Scale.quick(spec["seed"])

    def bundle(executor: CellExecutor) -> Tuple[float, str]:
        t0 = time.perf_counter()
        text = "\n".join(driver.main(scale, executor=executor)
                         for driver in (fig5_failure, fig6_latency, table2_connum))
        return time.perf_counter() - t0, hashlib.sha256(text.encode()).hexdigest()[:16]

    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="cells-", dir=OUT) as tmp:
        cold = CellExecutor(jobs=2, cache=CellCache(Path(tmp)))
        warm = CellExecutor(jobs=1, cache=CellCache(Path(tmp)))
        setup_s = now() - spec["t0"]
        sweep_s, cold_digest = bundle(cold)
        warm_s, warm_digest = bundle(warm)

    errors = []
    if cold_digest != warm_digest:
        errors.append(f"cold tables {cold_digest} != warm tables {warm_digest}")
    if warm.stats.executed:
        errors.append(f"warm pass executed {warm.stats.executed} cells")
    layers = {
        "exec.pool.cells_total": cold.stats.cells_total,
        "exec.pool.executed": cold.stats.executed,
        "exec.pool.cell_seconds_sum": cold.stats.cell_seconds,
        "exec.pool.wall_s": cold.stats.wall_seconds,
        "exec.pool.parallel_efficiency":
            cold.stats.cell_seconds / (2 * cold.stats.wall_seconds),
        "exec.cache.hits": warm.stats.cache_hits,
        "exec.cache.dedup_hits_cold": cold.stats.cache_hits,
        "exec.cache.warm_s": warm_s,
    }
    if tracer is not None:
        layers["exec.cache.get_s"] = tracer.total_s("exec.cache.get")
        layers["exec.cache.put_s"] = tracer.total_s("exec.cache.put")
        layers.update(replay_fig5b(scale, tracer))
    return {
        "setup_s": setup_s,
        "measured": {"sweep_s": [sweep_s]},
        "samples": {"sweep_s": 1},
        "attempted": cold.stats.cells_total,
        "failed": cold.stats.errors + warm.stats.errors,
        "errors": errors,
        "layers": layers,
        "digest": cold_digest,
    }


def replay_fig5b(scale: Any, tracer: Any) -> Dict[str, float]:
    """Per-event layers of the sweep, sampled in-process.

    The pool's forked workers cannot hand spans back, so one row of the
    bundle's fig5b grid (p_s = 0.6 at five crash fractions; heartbeats +
    crashes drive timers and cancellable events far harder than
    ``sim_paper``) is run once more inline under the tracer, keeping the
    systems for their exact counters.
    """
    from repro.exec import CellExecutor
    from repro.experiments import fig5_failure

    class KeepSystems(CellExecutor):
        def map(self, specs):  # type: ignore[override]
            self.kept = [dataclasses.replace(s, system_out={}) for s in specs]
            return super().map(self.kept)

    executor = KeepSystems(jobs=1)
    fig5_failure.run_5b(scale, ps_values=(0.6,), executor=executor)
    tracer.uninstall()
    counts = system_counts([s.system_out["system"] for s in executor.kept])
    counts.update(sim_span_layers(tracer, counts))
    return counts


# ----------------------------------------------------------------------
# Live workloads
# ----------------------------------------------------------------------
def live_net(workload: str, seed: int) -> Tuple[Any, float]:
    """(LocalNet, get fraction).  k=1 on live_read bypasses replica.protocol."""
    from repro.runtime import LocalNet, fast_config

    if workload == "live_read":
        return LocalNet(t_peers=4, s_peers=4, seed=seed, config=fast_config()), 0.9
    config = fast_config(
        replication_factor=3, write_quorum=2, replica_ack_timeout=500.0,
        replica_write_retries=1, replica_sync_period=1000.0,
        heartbeats_enabled=True)
    return LocalNet(t_peers=4, s_peers=2, seed=seed, config=config), 0.5


class Driver:
    """Client load on ``ClientConnection.request``; every reply is checked."""

    def __init__(self, conns: List[Any], seed: int, get_fraction: float) -> None:
        from repro.runtime import ClientGet, ClientPut

        self.get, self.put = ClientGet, ClientPut
        self.conns = conns
        self.seed = seed
        self.get_fraction = get_fraction
        self.attempted = self.failed = self.writes = 0

    async def op(self, conn: Any, rng: random.Random,
                 lat: Dict[str, List[float]], due: Optional[float] = None) -> None:
        key = f"k/{rng.randrange(KEYSPACE)}"
        if rng.random() < self.get_fraction:
            verb, msg = "get", self.get(key=key)
        else:
            self.writes += 1
            verb, msg = "put", self.put(key=key, value=f"{key}#{self.writes}")
        self.attempted += 1
        start = time.perf_counter() if due is None else due
        try:
            reply = await conn.request(msg, timeout=5.0)
        except (ConnectionError, OSError, asyncio.TimeoutError):
            self.failed += 1  # a failed request misses every latency figure
            return
        if not reply.ok or (verb == "get" and not value_ok(key, reply.payload)):
            self.failed += 1
            return
        lat[verb].append((time.perf_counter() - start) * 1e3)

    async def prepopulate(self) -> None:
        gate = asyncio.Semaphore(32)

        async def put(i: int) -> None:
            async with gate:
                reply = await self.conns[i % len(self.conns)].request(
                    self.put(key=f"k/{i}", value=f"k/{i}#0"), timeout=5.0)
                if not reply.ok:
                    raise RuntimeError(f"prepopulate k/{i}: {reply.error}")

        await asyncio.gather(*(put(i) for i in range(KEYSPACE)))

    async def serial(self, seconds: float, verbs: Tuple[str, ...]) -> Dict[str, List[float]]:
        """Phase A: closed loop, 1 request in flight, entering at each node in turn.

        Through a single node the local/remote mix hinges on how much of
        the ring that node happens to own: p50 moved 0.14-0.41 ms with
        the seed, against 0.38-0.41 ms when every node takes its turn.
        """
        lat: Dict[str, List[float]] = {"get": [], "put": []}
        rng = random.Random(self.seed)
        end = time.perf_counter() + seconds
        give_up = end + 2 * seconds
        turn = 0
        while True:
            t = time.perf_counter()
            short = any(len(lat[v]) < P99_SAMPLES for v in verbs)
            if t >= end and not (short and t < give_up):
                return lat
            await self.op(self.conns[turn % len(self.conns)], rng, lat)
            turn += 1

    async def saturate(self, seconds: float) -> float:
        """Phase B: closed loop, 32 in flight over all connections; ok replies per second."""
        lat: Dict[str, List[float]] = {"get": [], "put": []}
        start = time.perf_counter()
        end = start + seconds

        async def worker(w: int) -> None:
            rng = random.Random(self.seed * 1000 + w)
            while time.perf_counter() < end:
                await self.op(self.conns[w % len(self.conns)], rng, lat)

        await asyncio.gather(*(worker(w) for w in range(SAT_INFLIGHT)))
        return (len(lat["get"]) + len(lat["put"])) / (time.perf_counter() - start)

    async def open_loop(self, seconds: float) -> Dict[str, float]:
        """Phase C: fixed rate; latency counts from the time a request was due."""
        lat: Dict[str, List[float]] = {"get": [], "put": []}
        late: List[float] = []
        rng = random.Random(self.seed + 1)
        tasks: set = set()
        shed = i = 0
        due = time.perf_counter()
        end = due + seconds
        while due < end:
            wait = due - time.perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            late.append((time.perf_counter() - due) * 1e3)
            if len(tasks) >= 1024:
                shed += 1
            else:
                task = asyncio.ensure_future(
                    self.op(self.conns[i % len(self.conns)], rng, lat, due=due))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
                i += 1
            due += 1.0 / OPEN_RATE
        if tasks:
            await asyncio.gather(*tasks)
        return {
            "bench.driver.open.get_p50_ms": percentile(lat["get"], 50) or 0.0,
            "bench.driver.open.get_p99_ms": percentile(lat["get"], 99) or 0.0,
            "bench.driver.open.late_p99_ms": percentile(late, 99) or 0.0,
            "bench.driver.open.shed": shed,
        }


def value_ok(key: str, payload: Any) -> bool:
    """Every value the driver writes under ``key`` starts with ``key#``."""
    return isinstance(payload, dict) and str(payload.get("value", "")).startswith(key + "#")


async def loop_lag(samples: List[float], period: float = 0.005) -> None:
    """How late the event loop wakes a sleeper, in ms (cancelled by the caller)."""
    while True:
        t = time.perf_counter()
        await asyncio.sleep(period)
        samples.append((time.perf_counter() - t - period) * 1e3)


async def run_live(spec: Dict[str, Any], tracer: Any) -> Dict[str, Any]:
    from repro.runtime import ClientConnection

    workload, seconds = spec["workload"], spec["seconds"]
    # Warm-up takes a third of the run: for ~4 s after boot a net answers
    # ~30 % slower (p99 0.9-1.0 ms against 0.7), and that is not steady state.
    warm_s, serial_s, saturate_s = seconds / 3, seconds / 8, seconds / 8
    verbs = ("get",) if workload == "live_read" else ("get", "put")
    net, get_fraction = live_net(workload, spec["seed"])
    await net.start(join_timeout=30.0)
    conns: List[Any] = []
    try:
        await net.wait_converged(timeout=30.0)
        conns = [ClientConnection(n.host, n.port) for n in net.nodes]
        for conn in conns:
            await conn.connect()
        driver = Driver(conns, spec["seed"], get_fraction)
        await driver.prepopulate()
        await driver.serial(warm_s, ())  # warm-up window, discarded
        driver.attempted = driver.failed = 0
        setup_s = now() - spec["t0"]

        lag: List[float] = []
        probe = asyncio.ensure_future(loop_lag(lag)) if tracer is not None else None
        before = net.metrics_snapshots()
        windows = [await driver.serial(serial_s, verbs) for _ in range(LIVE_WINDOWS)]
        sat_ops_s = [await driver.saturate(saturate_s) for _ in range(LIVE_WINDOWS)]
        after = net.metrics_snapshots()
        ops = driver.attempted
        layers: Dict[str, float] = live_counter_layers(before, after, ops)
        if probe is not None:
            probe.cancel()
            tracer.uninstall()
            layers.update(live_span_layers(tracer))
            layers["runtime.client.loop_lag_p99_ms"] = percentile(lag, 99) or 0.0
            layers.update(await driver.open_loop(2 * serial_s))  # informational, untraced

        # Read everything back through one node: most keys were last
        # written through another, so this is not the writer's own copy.
        replies = await asyncio.gather(*(
            conns[-1].request(driver.get(key=f"k/{i}"), timeout=5.0)
            for i in range(KEYSPACE)))
        wrong = sum(1 for i, r in enumerate(replies)
                    if not (r.ok and value_ok(f"k/{i}", r.payload)))
    finally:
        for conn in conns:
            await conn.aclose()
        await net.stop()

    measured: Dict[str, List[float]] = {"sat_ops_s": sat_ops_s}
    samples: Dict[str, int] = {"sat_ops_s": 1}
    errors = [f"{wrong} of {KEYSPACE} keys read back wrong"] if wrong else []
    for verb in verbs:
        measured[f"{verb}_p50_ms"] = [percentile(lat[verb], 50) for lat in windows]
        samples[f"{verb}_p50_ms"] = min(len(lat[verb]) for lat in windows)
        # Window to window a p99 moves +-10 % on a quiet host and doubles on a
        # busy one: too unsteady to carry a bound, so it is a per-layer figure.
        tails = [percentile(lat[verb], 99) for lat in windows]
        if None in tails:
            errors.append(f"{samples[f'{verb}_p50_ms']} {verb}s cannot support a p99")
        else:
            layers[f"runtime.client.{verb}_p99_ms"] = statistics.median(tails)
    return {
        "setup_s": setup_s,
        "measured": measured,
        "samples": samples,
        "attempted": driver.attempted + KEYSPACE,
        "failed": driver.failed + wrong,
        "errors": errors,
        "layers": layers,
        "digest": None,  # request interleaving is not deterministic
    }


def live_counter_layers(before: Dict[str, Any], after: Dict[str, Any],
                        ops: int) -> Dict[str, float]:
    """Deltas of the daemons' own registries over phases A and B, all nodes summed."""

    def delta(family: str, field: str = "value", **labels: str) -> float:
        def total(snapshots: Dict[str, Any]) -> float:
            return sum(
                sample[field]
                for snap in snapshots.values()
                for sample in snap.get(family, {}).get("samples", ())
                if all(sample["labels"].get(k) == v for k, v in labels.items()))
        return total(after) - total(before)

    tx_frames = delta("repro_frames_total", direction="tx")
    tx_bytes = delta("repro_wire_bytes_total", direction="tx")
    hops = delta("repro_lookup_hops", "count")
    quorum = delta("repro_write_quorum_latency_ms", "count")
    return {
        "runtime.codec.bytes_per_frame": tx_bytes / tx_frames if tx_frames else 0.0,
        "runtime.aio_transport.tx_frames": tx_frames,
        "runtime.aio_transport.tx_bytes": tx_bytes,
        "runtime.aio_transport.frames_per_op": tx_frames / ops if ops else 0.0,
        "runtime.aio_transport.retries": delta("repro_frames_retried_total"),
        "runtime.aio_transport.drops": delta("repro_frames_dropped_total"),
        "runtime.aio_transport.reconnects": delta("repro_transport_reconnects_total"),
        "runtime.aio_transport.backpressure": delta("repro_tx_backpressure_total"),
        "runtime.node.lookup_hops_mean":
            delta("repro_lookup_hops", "sum") / hops if hops else 0.0,
        "replica.protocol.quorum_writes": quorum,
        "replica.protocol.quorum_latency_mean_ms":
            delta("repro_write_quorum_latency_ms", "sum") / quorum if quorum else 0.0,
        "replica.protocol.write_frames":
            delta("repro_frames_total", direction="tx", type="ReplicaWrite"),
        "replica.protocol.acks":
            delta("repro_frames_total", direction="rx", type="ReplicaAck"),
        "replica.protocol.repair_items": delta("repro_replica_repair_items_total"),
    }


def live_span_layers(tracer: Any) -> Dict[str, float]:
    t = tracer
    return {
        "runtime.codec.encode_calls": t.calls("runtime.codec.encode"),
        "runtime.codec.decode_calls": t.calls("runtime.codec.decode"),
        "runtime.codec.encode_s": t.self_s("runtime.codec.encode", "runtime.codec.frame"),
        "runtime.codec.decode_s": t.self_s("runtime.codec.decode"),
        "runtime.aio_transport.send_s": t.self_s("runtime.aio_transport.send"),
        "runtime.node.receive_calls": t.calls("runtime.node.receive"),
        "runtime.node.self_s": t.self_s("runtime.node.receive"),
        "runtime.client.requests": t.calls("runtime.client.request"),
        "runtime.client.request_wait_s": t.total_s("runtime.client.request"),
    }


# ----------------------------------------------------------------------
def main(argv: List[str]) -> int:
    spec = json.loads(argv[1])
    sys.path[0] = str(ROOT)  # `bench.*`; also keeps bench/trace.py off the stdlib's name
    sys.path.insert(1, str(ROOT / "src"))
    workload = spec["workload"]
    tracer = None
    if spec["trace"]:
        from bench.trace import Tracer

        tracer = Tracer()
        tracer.install("live" if workload.startswith("live") else "sim")
    try:
        if workload in SIM:
            result = run_sim(spec, tracer)
        elif workload == "sweep_quick":
            result = run_sweep(spec, tracer)
        else:
            result = asyncio.run(run_live(spec, tracer))
    finally:
        if tracer is not None:
            tracer.uninstall()
    usage = [resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    result["rss_mb"] = max(usage) / 1024.0
    if tracer is not None:
        OUT.mkdir(parents=True, exist_ok=True)
        trace_file = OUT / f"trace-{workload}.json"
        trace_file.write_text(json.dumps(
            {"workload": workload, "seed": spec["seed"], **tracer.dump()}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
