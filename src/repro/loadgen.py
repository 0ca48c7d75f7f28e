"""Open/closed-loop load generator for the live client path.

Drives N concurrent clients against one or more live nodes and
reports p50/p99/p999 latency per verb, sustained throughput, and error
rate.  Exposed on the CLI as ``repro bench-clients`` -- the operator's
load generator against running nodes (``scripts/failover_smoke.py``
drives it against a cluster it kills a node of).  The recorded
client-path numbers come from the perf ledger's ``live_read`` /
``live_write`` workloads (``python3 bench/run.py``), not from here.

Two driving disciplines, selected by ``LoadSpec.rate``:

* **closed loop** (``rate=None``) -- each of ``clients`` persistent
  :class:`~repro.runtime.client.ClientConnection`\\ s keeps ``pipeline``
  operations permanently in flight; the next op is issued the moment
  one completes.  Measures saturation throughput: what the node can
  sustain when the client never lets the pipe drain.
* **open loop** (``rate`` ops/s) -- operations are dispatched on a
  fixed schedule regardless of completions, the way independent real
  clients arrive.  Latency under open loop includes queueing delay, so
  it degrades *before* throughput does -- that is the point of running
  both.  A ``max_inflight`` guard sheds dispatches (counted separately
  from errors) instead of growing an unbounded task pile when the
  requested rate exceeds capacity.

The key population is ``lg/0 .. lg/{keyspace-1}``, pre-stored before
the measured window so gets always have something to find; per-worker
``random.Random`` streams (seeded from ``LoadSpec.seed``) keep runs
reproducible modulo scheduling.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .runtime.client import ClientConnection, ClientGet, ClientPut

__all__ = [
    "LoadSpec",
    "VerbStats",
    "LoadResult",
    "run_load",
    "run_load_sync",
]


@dataclass
class LoadSpec:
    """Everything one benchmark run needs; see module docstring."""

    endpoints: Sequence[Tuple[str, int]]
    clients: int = 4
    pipeline: int = 16
    duration: float = 5.0
    warmup: float = 0.5
    get_fraction: float = 0.9
    keyspace: int = 256
    rate: Optional[float] = None  # total ops/s; None = closed loop
    max_inflight: int = 1024  # open-loop shed guard
    timeout: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.endpoints:
            raise ValueError("need at least one endpoint")
        if self.clients < 1 or self.pipeline < 1 or self.keyspace < 1:
            raise ValueError("clients, pipeline and keyspace must be >= 1")
        if not (0.0 <= self.get_fraction <= 1.0):
            raise ValueError(f"get_fraction must be in [0, 1], got {self.get_fraction}")
        if self.rate is not None and self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")

    @property
    def mode(self) -> str:
        return "closed" if self.rate is None else "open"


@dataclass
class VerbStats:
    """Latency/outcome aggregates for one verb over the measured window."""

    ops: int = 0
    errors: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    error_samples: List[str] = field(default_factory=list)

    def record(self, latency_ms: float) -> None:
        self.ops += 1
        self.latencies_ms.append(latency_ms)

    def record_error(self, error: str) -> None:
        self.ops += 1
        self.errors += 1
        if len(self.error_samples) < 5:
            self.error_samples.append(error)

    def summary(self) -> Dict[str, object]:
        out: Dict[str, object] = {"ops": self.ops, "errors": self.errors}
        if self.latencies_ms:
            arr = np.asarray(self.latencies_ms, dtype=float)
            out.update(
                p50_ms=round(float(np.percentile(arr, 50)), 4),
                p99_ms=round(float(np.percentile(arr, 99)), 4),
                p999_ms=round(float(np.percentile(arr, 99.9)), 4),
                mean_ms=round(float(arr.mean()), 4),
                max_ms=round(float(arr.max()), 4),
            )
        if self.error_samples:
            out["error_samples"] = list(self.error_samples)
        return out


@dataclass
class LoadResult:
    """One finished run: spec echo + throughput + per-verb stats."""

    mode: str
    clients: int
    pipeline: int
    requested_rate: Optional[float]
    measured_seconds: float
    put: VerbStats
    get: VerbStats
    shed: int = 0  # open-loop dispatches dropped by the inflight guard

    @property
    def ops_total(self) -> int:
        return self.put.ops + self.get.ops

    @property
    def errors_total(self) -> int:
        return self.put.errors + self.get.errors

    @property
    def throughput_ops(self) -> float:
        if self.measured_seconds <= 0:
            return 0.0
        return self.ops_total / self.measured_seconds

    @property
    def get_throughput_ops(self) -> float:
        if self.measured_seconds <= 0:
            return 0.0
        return self.get.ops / self.measured_seconds

    @property
    def error_rate(self) -> float:
        return (self.errors_total / self.ops_total) if self.ops_total else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "clients": self.clients,
            "pipeline": self.pipeline,
            "requested_rate_ops": self.requested_rate,
            "measured_seconds": round(self.measured_seconds, 3),
            "ops_total": self.ops_total,
            "throughput_ops": round(self.throughput_ops, 1),
            "get_throughput_ops": round(self.get_throughput_ops, 1),
            "error_rate": round(self.error_rate, 6),
            "shed": self.shed,
            "put": self.put.summary(),
            "get": self.get.summary(),
        }

    def __str__(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


# ----------------------------------------------------------------------
async def _prepopulate(conns: Sequence[ClientConnection], spec: LoadSpec) -> None:
    """Store every key once (pipelined, striped over connections)."""
    sem = asyncio.Semaphore(max(spec.pipeline, 32))

    async def put_one(i: int) -> None:
        async with sem:
            reply = await conns[i % len(conns)].request(
                ClientPut(key=f"lg/{i}", value=f"seed-{i}"), timeout=spec.timeout
            )
            if not reply.ok:
                raise RuntimeError(f"prepopulate put lg/{i} failed: {reply.error}")

    await asyncio.gather(*(put_one(i) for i in range(spec.keyspace)))


async def _one_op(
    conn: ClientConnection,
    spec: LoadSpec,
    rng: random.Random,
    put: VerbStats,
    get: VerbStats,
    record_after: float,
) -> None:
    """Issue one randomly chosen op; record it if inside the window."""
    loop = asyncio.get_running_loop()
    key = f"lg/{rng.randrange(spec.keyspace)}"
    if rng.random() < spec.get_fraction:
        msg, stats = ClientGet(key=key), get
    else:
        msg, stats = ClientPut(key=key, value=f"v-{key}"), put
    t0 = loop.time()
    try:
        reply = await conn.request(msg, timeout=spec.timeout)
    except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
        if t0 >= record_after:
            stats.record_error(f"{type(exc).__name__}: {exc}")
        return
    if t0 < record_after:
        return
    if reply.ok:
        stats.record((loop.time() - t0) * 1e3)
    else:
        stats.record_error(reply.error or "not ok")


async def _closed_loop(
    conns: Sequence[ClientConnection],
    spec: LoadSpec,
    put: VerbStats,
    get: VerbStats,
    deadline: float,
    record_after: float,
) -> int:
    """``clients * pipeline`` workers, each always one op in flight."""
    loop = asyncio.get_running_loop()

    async def worker(wid: int) -> None:
        conn = conns[wid % len(conns)]
        rng = random.Random((spec.seed << 16) ^ wid)
        while loop.time() < deadline:
            await _one_op(conn, spec, rng, put, get, record_after)

    await asyncio.gather(*(worker(w) for w in range(spec.clients * spec.pipeline)))
    return 0


async def _open_loop(
    conns: Sequence[ClientConnection],
    spec: LoadSpec,
    put: VerbStats,
    get: VerbStats,
    deadline: float,
    record_after: float,
) -> int:
    """Dispatch on a fixed schedule; shed when the guard is full."""
    assert spec.rate is not None
    loop = asyncio.get_running_loop()
    interval = 1.0 / spec.rate
    rng = random.Random(spec.seed << 16)
    inflight: set = set()
    shed = 0
    next_at = loop.time()
    i = 0
    while True:
        now = loop.time()
        if now >= deadline:
            break
        if now < next_at:
            await asyncio.sleep(next_at - now)
            continue
        next_at += interval
        if len(inflight) >= spec.max_inflight:
            shed += 1
            continue
        task = asyncio.ensure_future(
            _one_op(conns[i % len(conns)], spec, rng, put, get, record_after)
        )
        inflight.add(task)
        task.add_done_callback(inflight.discard)
        i += 1
    if inflight:
        await asyncio.gather(*inflight)
    return shed


async def run_load(spec: LoadSpec) -> LoadResult:
    """Run one benchmark: connect, prepopulate, drive, aggregate."""
    conns = [
        ClientConnection(host, port, timeout=spec.timeout)
        for host, port in (
            spec.endpoints[c % len(spec.endpoints)] for c in range(spec.clients)
        )
    ]
    put, get = VerbStats(), VerbStats()
    loop = asyncio.get_running_loop()
    try:
        await asyncio.gather(*(c.connect() for c in conns))
        await _prepopulate(conns, spec)
        t0 = loop.time()
        record_after = t0 + spec.warmup
        deadline = record_after + spec.duration
        drive = _closed_loop if spec.rate is None else _open_loop
        shed = await drive(conns, spec, put, get, deadline, record_after)
        measured = loop.time() - record_after
    finally:
        await asyncio.gather(*(c.aclose() for c in conns), return_exceptions=True)
    return LoadResult(
        mode=spec.mode,
        clients=spec.clients,
        pipeline=spec.pipeline,
        requested_rate=spec.rate,
        measured_seconds=measured,
        put=put,
        get=get,
        shed=shed,
    )


def run_load_sync(spec: LoadSpec) -> LoadResult:
    """Blocking wrapper for CLI use (runs its own event loop)."""
    return asyncio.run(run_load(spec))
