"""Every public name in ``src/repro`` has a caller outside the tests.

An AST scan lists each public def -- a module-level function or class,
or a method of a class at module level, whose name has no leading
underscore -- whose name occurs nowhere else in ``src/``, ``bench/``,
``scripts/`` or ``examples/``.  An occurrence is a name, an attribute
or a string constant; ``import`` lines, ``__all__`` entries and
``test_*.py`` files do not count.  Message handlers (``on_*``) are
reached by name through the dispatch table and are skipped.

Names match by spelling alone, so a method whose name some other object
also uses counts as called: the scan finds a lower bound of the dead
code, not all of it.  The list must equal :data:`ALLOWED`, each entry
with the reason it stays.  A new name with only test callers fails here
until it gets a caller, is deleted, or is pinned with its reason.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "bench", "scripts", "examples")

_RESERVED = "reserved wire id, never sent: keeps every later id in place"
_ASYNCIO = "asyncio.Protocol callback, called by the event loop"

ALLOWED = {
    "repro.core.datastore.DataStore.delete": "tests inject a lost item with it",
    "repro.core.hybrid.HybridSystem.join_latencies":
        "library accessor named in the module docstring; join tests read it",
    "repro.core.server.RingDirectory.successor_of_pid":
        "ring-directory query the directory tests pin",
    "repro.enhance.caching.LruCache.invalidate": "cache API; cache tests drop an entry",
    "repro.experiments.common.Scale.large":
        "the 10^5 cell; bench's sim_bulk builds 0.2x of it inline",
    "repro.experiments.common.Scale.huge": "the 10^6 cell, kept for the scale runs",
    "repro.experiments.common.Scale.with_seed": "kept for multi-seed sweeps of one cell",
    "repro.metrics.collectors.MembershipLog.of": "how churn tests read the log",
    "repro.net.links.CapacityModel.capacity_class": "tests check a host's tier",
    "repro.net.links.CapacityModel.classes": "tests check the tier split",
    "repro.net.topology.TransitStubConfig.total_nodes":
        "the size bound config_for_size() documents; topology tests check it",
    "repro.net.topology.PhysicalTopology.stub_nodes":
        "pairs with transit_nodes; topology tests read it",
    "repro.obs.bridge.TraceBridge.detach": "undoes attach(); bridge tests detach",
    "repro.overlay.idspace.IdSpace.finger_start":
        "Chord's finger interval, which the finger build inlines; test oracle",
    "repro.overlay.messages.TLeaveRequest": _RESERVED,
    "repro.overlay.messages.PartialQuery": _RESERVED,
    "repro.overlay.messages.PartialResult": _RESERVED,
    "repro.overlay.messages.ReplicaPush": _RESERVED,
    "repro.overlay.messages.BTRegister": _RESERVED,
    "repro.overlay.messages.BTLookup": _RESERVED,
    "repro.overlay.messages.BTFetch": _RESERVED,
    "repro.runtime.aio_transport.FrameConnection.connection_made": _ASYNCIO,
    "repro.runtime.aio_transport.FrameConnection.connection_lost": _ASYNCIO,
    "repro.runtime.aio_transport.FrameConnection.pause_writing": _ASYNCIO,
    "repro.runtime.aio_transport.FrameConnection.eof_received": _ASYNCIO,
    "repro.runtime.aio_transport.FrameConnection.data_received": _ASYNCIO,
    "repro.runtime.codec.MessageCodec.type_id_of": "the wire-id pin tests read it",
    "repro.shard.sync.NullMessageSync.in_flight":
        "shard tests count the captured cross-shard messages",
    "repro.sim.engine.Engine.schedule_at":
        "engine API; hot paths inline it, engine tests call it",
    "repro.sim.engine.Engine.schedule_after":
        "engine API; hot paths inline it, engine tests call it",
    "repro.sim.rng.RngRegistry.fresh": "tests replay a stream from its origin",
    "repro.sim.trace.TraceBus.active": "bus-global twin of wants(); trace tests read it",
    "repro.swarm.pieces.bitmap_all": "swarm tests build a full holder's bitmap",
    "repro.swarm.tracker.SwarmTracker.contents": "swarm tests list what is tracked",
    "repro.workloads.churn.crash_fraction_schedule":
        "Fig. 5b's crash batch as a churn schedule; prepare_cell crashes directly",
}


def _caller_files() -> Iterator[Path]:
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if not path.name.startswith("test_") and path.name != "conftest.py":
                yield path


def _all_nodes(tree: ast.Module) -> Set[int]:
    """Ids of every node inside an ``__all__`` assignment."""
    out: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            out.update(id(n) for n in ast.walk(node))
    return out


def _public_defs(body: list, prefix: str) -> Iterator[Tuple[str, str]]:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield prefix + node.name, node.name
            if isinstance(node, ast.ClassDef):
                yield from _public_defs(node.body, f"{prefix}{node.name}.")


def uncalled_names() -> Set[str]:
    """Qualified names of public defs in ``src/repro`` with no caller."""
    used: Set[str] = set()
    defs = []
    for path in _caller_files():
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        skip = _all_nodes(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif (
                isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in skip
            ):
                used.add(node.value)
        rel = path.relative_to(ROOT)
        if rel.parts[0] == "src":
            module = ".".join(rel.with_suffix("").parts[1:])
            defs.extend(_public_defs(tree.body, module + "."))
    return {
        qualname for qualname, name in defs
        if name not in used and not name.startswith("on_")
    }


def test_every_public_name_has_a_caller_or_a_pinned_reason():
    found = uncalled_names()
    assert sorted(found - set(ALLOWED)) == [], "new names without a caller"
    assert sorted(set(ALLOWED) - found) == [], "pinned names that now have a caller"
