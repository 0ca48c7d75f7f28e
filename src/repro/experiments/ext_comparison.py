"""Extension experiment: hybrid vs pure Chord vs pure Gnutella.

The paper frames the hybrid design as interpolating between the two
pure architectures and compares against them *implicitly*: p_s = 0 is
a pure ring and p_s -> 1 is pure Gnutella.  This experiment makes the
comparison explicit by running the same workload through three
:class:`HybridConfig` rows on the same physical topology:

* ``chord`` -- p_s = 0 with finger routing (a ring with Chord's
  O(log n) hops);
* ``gnutella`` -- p_s = 0.99 with a meshed s-network, flooded at the
  row's TTL;
* ``hybrid`` -- the paper's design at a mid-to-high p_s.

Each row reports the three axes the introduction argues about, all
read from one system's :class:`QueryStats` and transport counter:

* **accuracy** -- lookup failure ratio for keys that exist;
* **cost** -- peers contacted per lookup;
* **flexibility** -- control messages sent per membership change.

Expected outcome (the paper's thesis): Chord is accurate but expensive
to maintain; Gnutella floods; the hybrid at p_s ~ 0.7 is accurate *and*
cheap to maintain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..core.config import HybridConfig
from ..core.hybrid import HybridSystem
from ..exec import CellExecutor
from ..metrics.report import format_table
from ..net.topology import config_for_size, generate_transit_stub
from .ext_maintenance import churn_messages

__all__ = ["SystemScore", "run", "main"]


@dataclass(frozen=True)
class SystemScore:
    """One architecture's results on the common workload."""

    name: str
    failure_ratio: float
    contacts_per_lookup: float
    maintenance_per_event: float


def _score_row(task: tuple) -> SystemScore:
    """Score one configuration: lookups, then churn (picklable work unit)."""
    name, config, n_peers, n_keys, n_lookups, churn, seed, topology = task
    system = HybridSystem(config, n_peers=n_peers, seed=seed, topology=topology)
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
    maintenance = churn_messages(system, churn, rng) / max(1, churn)
    return SystemScore(
        name=name,
        failure_ratio=stats.failure_ratio,
        contacts_per_lookup=stats.mean_contacts_per_lookup,
        maintenance_per_event=maintenance,
    )


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
    """Score the three architectures on a common topology and workload."""
    executor = executor or CellExecutor(jobs=1)
    topology = generate_transit_stub(
        config_for_size(n_peers + 1), np.random.default_rng(seed)
    )
    rows = {
        "chord": HybridConfig(p_s=0.0, ttl=ttl, ring_routing="finger"),
        f"gnutella (ttl={ttl})": HybridConfig(p_s=0.99, ttl=ttl, mesh_extra_links=2),
        f"hybrid (p_s={hybrid_ps})": HybridConfig(p_s=hybrid_ps, ttl=ttl),
    }
    tasks = [
        (name, config, n_peers, n_keys, n_lookups, churn, seed, topology)
        for name, config in rows.items()
    ]
    scores = executor.map_fn(_score_row, tasks, tag="comparison")
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
