"""Layer tracer: spans recorded from outside ``src/``.

Imported only under ``--trace``.  ``Tracer.install`` wraps the public
calls into each layer (``TARGETS``) by ``setattr`` on the owning class
or module; ``uninstall`` puts every attribute back exactly as it was.

Two kinds of record share one span stack, so a span's *self* time is
its duration minus the time its child spans cover:

* phase-level calls (a handful per cell) are kept as individual spans
  -- name, start, end, parent id, RSS at both ends (one traced child is
  one repetition, so its trace file is the repetition's id);
* per-event calls (millions per cell) are only aggregated per span
  name as ``[calls, total_s, self_s]``.

Coroutines (``ClientConnection.request``) interleave across tasks, so
they get individual spans without joining the stack.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

PHASE, HOT, ASYNC = "phase", "hot", "async"

# (module, class or None for a module-level name, attribute, span name, kind).
# Module-level functions are patched in the namespace that calls them.
TARGETS: Dict[str, List[Tuple[str, Optional[str], str, str, str]]] = {
    "sim": [
        ("repro.core.hybrid", "HybridSystem", "__init__", "core.hybrid.init", PHASE),
        ("repro.core.hybrid", "HybridSystem", "build", "core.hybrid.build", PHASE),
        ("repro.core.hybrid", "HybridSystem", "build_bulk", "core.hybrid.build", PHASE),
        ("repro.core.hybrid", "HybridSystem", "install_fingers", "core.hybrid.install_fingers", PHASE),
        ("repro.core.hybrid", "HybridSystem", "populate", "core.hybrid.populate", PHASE),
        ("repro.core.hybrid", "HybridSystem", "run_lookups", "core.hybrid.lookups", PHASE),
        ("repro.core.hybrid", "HybridSystem", "query_stats", "core.hybrid.stats", PHASE),
        ("repro.core.hybrid", None, "generate_transit_stub", "net.topology.generate", PHASE),
        ("repro.core.hybrid", None, "make_router", "net.routing.make_router", PHASE),
        ("repro.net.routing", "Router", "latency_row", "net.routing.latency_row", HOT),
        ("repro.net.routing", "HierRouter", "latency_row", "net.routing.latency_row", HOT),
        ("repro.sim.engine", "Engine", "run", "sim.engine.run", HOT),
        ("repro.sim.engine", "Engine", "run_while", "sim.engine.run", HOT),
        ("repro.sim.engine", "Engine", "run_until", "sim.engine.run", HOT),
        ("repro.sim.engine", "Engine", "call_at", "sim.engine.call_at", HOT),
        ("repro.sim.timers", "Timer", "start", "sim.timers.start", HOT),
        ("repro.sim.timers", "Timer", "cancel", "sim.timers.cancel", HOT),
        ("repro.sim.timers", "PeriodicTimer", "start", "sim.timers.start", HOT),
        ("repro.sim.timers", "PeriodicTimer", "stop", "sim.timers.cancel", HOT),
        ("repro.overlay.transport", "Transport", "send", "overlay.transport.send", HOT),
        ("repro.overlay.transport", "Transport", "send_many", "overlay.transport.send_many", HOT),
        ("repro.core.hybridpeer", "HybridPeer", "receive", "core.hybridpeer.receive", HOT),
        ("repro.core.lookup", "QueryRegistry", "start", "core.lookup.start", HOT),
        ("repro.core.lookup", "QueryRegistry", "contact", "core.lookup.contact", HOT),
        ("repro.core.lookup", "QueryRegistry", "succeed", "core.lookup.succeed", HOT),
        ("repro.core.lookup", "QueryRegistry", "fail", "core.lookup.fail", HOT),
        ("repro.core.lookup", "QueryRegistry", "stats", "core.lookup.stats", HOT),
        ("repro.exec.pool", "CellExecutor", "map", "exec.pool.map", PHASE),
        ("repro.exec.cache", "CellCache", "get", "exec.cache.get", HOT),
        ("repro.exec.cache", "CellCache", "put", "exec.cache.put", HOT),
    ],
    "live": [
        ("repro.runtime.codec", "MessageCodec", "encode", "runtime.codec.encode", HOT),
        ("repro.runtime.codec", "MessageCodec", "frame", "runtime.codec.frame", HOT),
        ("repro.runtime.codec", "MessageCodec", "decode", "runtime.codec.decode", HOT),
        ("repro.runtime.aio_transport", "AioTransport", "send", "runtime.aio_transport.send", HOT),
        ("repro.runtime.aio_transport", "AioTransport", "send_many", "runtime.aio_transport.send", HOT),
        ("repro.runtime.node", "RuntimePeer", "receive", "runtime.node.receive", HOT),
        ("repro.runtime.client", "ClientConnection", "request", "runtime.client.request", ASYNC),
    ],
}

_MISSING = object()


def rss_kb() -> int:
    """Current resident set in kB (Linux; 0 elsewhere).

    An own copy of ``repro.perf.rss_kb``: the ruler borrows no helper from src/.
    """
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * 4
    except (OSError, IndexError, ValueError):
        return 0


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Dict[str, Any]] = []
        self.agg: Dict[str, List[float]] = {}
        self._stack: List[List[Any]] = []  # open spans: [child cover (s), span id]
        self._next_id = 0
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def wrap(self, fn: Callable, name: str, kind: str = HOT) -> Callable:
        """Wrapper around ``fn`` that records one span named ``name`` per call."""
        rec = self.agg.setdefault(name, [0, 0.0, 0.0])
        clock, stack, spans = self.clock, self._stack, self.spans

        if kind == ASYNC:
            @functools.wraps(fn)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                span = {"id": self._new_id(), "name": name, "parent": None, "start": clock()}
                try:
                    return await fn(*args, **kwargs)
                finally:
                    span["end"] = end = clock()
                    spans.append(span)
                    rec[0] += 1
                    rec[1] += end - span["start"]
                    rec[2] += end - span["start"]
            return traced_async

        keep = kind == PHASE

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0, self._new_id() if keep else None]
            parent = stack[-1] if stack else None
            if keep:
                span = {"id": frame[1], "name": name,
                        "parent": _enclosing_id(stack), "rss0_kb": rss_kb()}
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                rec[0] += 1
                rec[1] += took
                rec[2] += took - frame[0]
                if parent is not None:
                    parent[0] += took
                if keep:
                    span.update(start=start, end=start + took,
                                self_s=took - frame[0], rss1_kb=rss_kb())
                    spans.append(span)
        return traced

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    # ------------------------------------------------------------------
    def install(self, group: str) -> None:
        """Patch every target of ``group``; originals resolved before any patch."""
        resolved = []
        for module, cls, attr, name, kind in TARGETS[group]:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            resolved.append((owner, attr, getattr(owner, attr), name, kind))
        for owner, attr, fn, name, kind in resolved:
            self._patched.append((owner, attr, vars(owner).get(attr, _MISSING)))
            setattr(owner, attr, self.wrap(fn, name, kind))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            if raw is _MISSING:  # was inherited: drop our shadow
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        self._patched.clear()

    # ------------------------------------------------------------------
    def _sum(self, column: int, names: Tuple[str, ...]) -> float:
        return sum(self.agg[n][column] for n in names if n in self.agg)

    def calls(self, *names: str) -> int:
        return int(self._sum(0, names))

    def total_s(self, *names: str) -> float:
        return self._sum(1, names)

    def self_s(self, *names: str) -> float:
        return self._sum(2, names)

    def dump(self) -> Dict[str, Any]:
        return {
            "spans": self.spans,
            "aggregates": {
                name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.agg.items())
            },
        }


def _enclosing_id(stack: List[List[Any]]) -> Optional[int]:
    """Id of the innermost open *kept* span (aggregated frames carry none)."""
    for frame in reversed(stack):
        if frame[1] is not None:
            return frame[1]
    return None
