"""Extension experiment: hybrid vs pure Chord vs pure Gnutella.

The paper frames the hybrid design as interpolating between the two
pure architectures and compares against them *implicitly* (its own
p_s = 0 / p_s = 1 endpoints).  This experiment makes the comparison
explicit by running the same workload through the standalone baselines
(:mod:`repro.baselines`) and the hybrid system on the same physical
topology, reporting the three axes the introduction argues about:

* **accuracy** -- lookup failure ratio for keys that exist;
* **cost** -- peers contacted per lookup;
* **flexibility** -- maintenance effort per membership change
  (stabilization hops for Chord, link updates for Gnutella, control
  messages for the hybrid).

Expected outcome (the paper's thesis): Chord is accurate but expensive
to maintain; Gnutella is cheap to maintain but inaccurate at bounded
TTL; the hybrid at p_s ~ 0.7 is accurate *and* cheap to maintain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..baselines.chord import ChordNetwork
from ..baselines.gnutella import GnutellaNetwork
from ..core.config import HybridConfig
from ..core.hybrid import HybridSystem
from ..exec import CellExecutor
from ..metrics.report import format_table
from ..net.routing import Router
from ..net.topology import config_for_size, generate_transit_stub
from ..overlay.idspace import IdSpace

__all__ = ["SystemScore", "run", "main"]


@dataclass(frozen=True)
class SystemScore:
    """One architecture's results on the common workload."""

    name: str
    failure_ratio: float
    contacts_per_lookup: float
    maintenance_per_event: float


def _common_substrate(n_peers: int, seed: int):
    rng = np.random.default_rng(seed)
    topology = generate_transit_stub(config_for_size(n_peers + 1), rng)
    return topology, Router(topology)


def _score_chord(
    n_peers: int, n_keys: int, n_lookups: int, churn: int, seed: int, router
) -> SystemScore:
    net = ChordNetwork(
        IdSpace(32),
        np.random.default_rng(seed),
        router=router,
        hosts=list(range(router.n)),
    )
    for _ in range(n_peers):
        net.join()
    net.stabilize()
    ids = [n.node_id for n in net.nodes.values() if n.alive]
    for i in range(n_keys):
        net.store(ids[i % len(ids)], f"k{i}", i)
    hops = []
    found = 0
    rng = np.random.default_rng(seed + 1)
    for i in range(n_lookups):
        origin = ids[int(rng.integers(0, len(ids)))]
        result = net.lookup(origin, f"k{i % n_keys}")
        hops.append(result.hops)
        found += result.found
    # Maintenance: alternate joins/graceful leaves, stabilizing after
    # each, and charge the stabilization + routing hops.
    before = net.total_maintenance_hops
    for i in range(churn):
        if i % 2 == 0:
            net.join()
        else:
            alive = [n.node_id for n in net.nodes.values() if n.alive]
            net.leave(alive[int(rng.integers(0, len(alive)))])
        net.stabilize()
    maintenance = (net.total_maintenance_hops - before) / max(1, churn)
    return SystemScore(
        name="chord",
        failure_ratio=1 - found / n_lookups,
        contacts_per_lookup=float(np.mean(hops)),
        maintenance_per_event=maintenance,
    )


def _score_gnutella(
    n_peers: int, n_keys: int, n_lookups: int, churn: int, seed: int, router, ttl: int
) -> SystemScore:
    net = GnutellaNetwork(
        np.random.default_rng(seed),
        links_per_join=3,
        router=router,
        hosts=list(range(router.n)),
    )
    for _ in range(n_peers):
        net.join()
    ids = [p.peer_id for p in net.peers.values() if p.alive]
    for i in range(n_keys):
        net.store(ids[i % len(ids)], f"k{i}", i)
    rng = np.random.default_rng(seed + 1)
    contacts, found = [], 0
    for i in range(n_lookups):
        origin = ids[int(rng.integers(0, len(ids)))]
        result = net.lookup(origin, f"k{i % n_keys}", ttl=ttl)
        contacts.append(result.contacts + result.duplicates)
        found += result.found
    # Maintenance: a join touches links_per_join peers; a leave notifies
    # each neighbor once.
    events = []
    for i in range(churn):
        if i % 2 == 0:
            peer = net.join()
            events.append(len(peer.neighbors))
        else:
            alive = [p.peer_id for p in net.peers.values() if p.alive]
            victim = int(rng.integers(0, len(alive)))
            events.append(len(net.peers[alive[victim]].neighbors))
            net.leave(alive[victim])
    return SystemScore(
        name=f"gnutella (ttl={ttl})",
        failure_ratio=1 - found / n_lookups,
        contacts_per_lookup=float(np.mean(contacts)),
        maintenance_per_event=float(np.mean(events)) if events else 0.0,
    )


def _score_hybrid(
    n_peers: int, n_keys: int, n_lookups: int, churn: int, seed: int,
    topology, p_s: float, ttl: int,
) -> SystemScore:
    system = HybridSystem(
        HybridConfig(p_s=p_s, ttl=ttl), n_peers=n_peers, seed=seed,
        topology=topology,
    )
    system.build()
    peers = [p.address for p in system.alive_peers()]
    system.populate([(peers[i % len(peers)], f"k{i}", i) for i in range(n_keys)])
    rng = system.rngs.stream("comparison")
    pairs = [
        (int(peers[int(rng.integers(0, len(peers)))]), f"k{i % n_keys}")
        for i in range(n_lookups)
    ]
    system.run_lookups(pairs)
    stats = system.query_stats()
    before = system.transport.messages_sent
    for i in range(churn):
        if i % 2 == 0:
            system.add_peer()
        else:
            alive = [p.address for p in system.alive_peers()]
            system.leave_peers([int(alive[int(rng.integers(0, len(alive)))])])
        system.engine.run()
    maintenance = (system.transport.messages_sent - before) / max(1, churn)
    return SystemScore(
        name=f"hybrid (p_s={p_s})",
        failure_ratio=stats.failure_ratio,
        contacts_per_lookup=stats.mean_contacts_per_lookup,
        maintenance_per_event=maintenance,
    )


def _score_one(task: tuple) -> SystemScore:
    """Dispatch one architecture's scoring run (picklable work unit)."""
    kind, args = task
    scorer = {
        "chord": _score_chord,
        "gnutella": _score_gnutella,
        "hybrid": _score_hybrid,
    }[kind]
    return scorer(*args)


def run(
    n_peers: int = 100,
    n_keys: int = 300,
    n_lookups: int = 300,
    churn: int = 20,
    seed: int = 0,
    ttl: int = 4,
    hybrid_ps: float = 0.7,
    executor: CellExecutor | None = None,
) -> Dict[str, SystemScore]:
    """Score the three architectures on a common substrate/workload."""
    executor = executor or CellExecutor.serial()
    topology, router = _common_substrate(n_peers, seed)
    tasks = [
        ("chord", (n_peers, n_keys, n_lookups, churn, seed, router)),
        ("gnutella", (n_peers, n_keys, n_lookups, churn, seed, router, ttl)),
        ("hybrid", (n_peers, n_keys, n_lookups, churn, seed, topology, hybrid_ps, ttl)),
    ]
    scores = executor.map_fn(_score_one, tasks, tag="comparison")
    return {s.name: s for s in scores}


def main(
    n_peers: int = 100, seed: int = 0, executor: CellExecutor | None = None
) -> str:
    scores = run(n_peers=n_peers, seed=seed, executor=executor)
    rows = [
        [
            s.name,
            f"{s.failure_ratio:.3f}",
            f"{s.contacts_per_lookup:.1f}",
            f"{s.maintenance_per_event:.1f}",
        ]
        for s in scores.values()
    ]
    return format_table(
        ["system", "failure", "contacts/lookup", "maintenance/event"],
        rows,
        title=f"Extension -- architecture comparison (N={n_peers})",
    )


if __name__ == "__main__":  # pragma: no cover
    print(main())
