"""Extension experiment: durable replication vs crash-induced data loss.

Fig. 5b shows the paper's single-copy design loses exactly the crashed
fraction of its data.  This extension routes storage through the
``repro.replica`` durability protocol -- each owner t-peer replicates
its segment to the next ``k-1`` t-peers on the ring, anti-entropy
repairs divergence, and §4 crash detection promotes the first live
successor to serve the crashed segment from its replica store.  A
lookup then fails only when the owner *and* every chained successor
crashed before repair, so the failure ratio drops from ~f toward ~f^k
(attenuated by ring-adjacent placement: consecutive t-peers crashing
together wipes a whole chain).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from ..core.config import HybridConfig
from ..exec import CellExecutor
from ..metrics.report import format_grid
from .common import Scale, populate_cell

__all__ = ["ReplicationCell", "run", "main"]

FACTORS: Sequence[int] = (1, 2, 3)
FRACTIONS: Sequence[float] = (0.1, 0.2, 0.3)


@dataclass(frozen=True)
class ReplicationCell:
    """Failure ratio for one (replication factor, crash fraction).

    ``stored_copies`` counts every durable copy in the system before
    the crash: primary items at their owner t-peers plus the replica
    copies held by successor chains (so ~``k`` x item count at
    ``replication_factor=k``).
    """

    factor: int
    crash_fraction: float
    failure_ratio: float
    stored_copies: int


def _replication_cell(args: tuple) -> ReplicationCell:
    """Measure one (replication factor, crash fraction) cell."""
    factor, fraction, scale, p_s = args
    config = HybridConfig(
        p_s=p_s,
        ttl=8,
        heartbeats_enabled=True,
        lookup_timeout=20_000.0,
        replication_factor=factor,
        # Anti-entropy on, so surviving successors repair their chains
        # during the post-crash settle window (inert at factor=1).
        replica_sync_period=5_000.0 if factor > 1 else 0.0,
    )
    system, workload = populate_cell(config, scale)
    copies = system.total_items() + system.total_replicas()
    system.crash_random_fraction(fraction)
    system.settle(40_000.0)
    alive = [p.address for p in system.alive_peers()]
    system.run_lookups(workload.sample_lookups(scale.n_lookups, alive))
    return ReplicationCell(
        factor=factor,
        crash_fraction=fraction,
        failure_ratio=system.query_stats().failure_ratio,
        stored_copies=copies,
    )


def run(
    n_peers: int = 80,
    n_keys: int = 240,
    n_lookups: int = 240,
    factors: Sequence[int] = FACTORS,
    fractions: Sequence[float] = FRACTIONS,
    p_s: float = 0.7,
    seed: int = 0,
    executor: CellExecutor | None = None,
) -> Dict[tuple, ReplicationCell]:
    executor = executor or CellExecutor(jobs=1)
    keys = [(factor, fraction) for factor in factors for fraction in fractions]
    scale = Scale(n_peers, n_keys, n_lookups, seed)
    tasks = [(factor, fraction, scale, p_s) for factor, fraction in keys]
    cells = executor.map_fn(_replication_cell, tasks, tag="replication")
    return {key: cell for key, cell in zip(keys, cells)}


def main(
    n_peers: int = 80, seed: int = 0, executor: CellExecutor | None = None
) -> str:
    cells = run(n_peers=n_peers, seed=seed, executor=executor)
    grid = {
        f"k={k}": {
            f"crash={f:.1f}": f"{cells[(k, f)].failure_ratio:.3f}"
            for f in FRACTIONS
        }
        for k in FACTORS
    }
    return format_grid(
        "replicas",
        [f"k={k}" for k in FACTORS],
        "",
        [f"crash={f:.1f}" for f in FRACTIONS],
        grid,
        title=f"Extension -- replication vs crash loss (N={n_peers}, p_s=0.7)",
    )


if __name__ == "__main__":  # pragma: no cover
    print(main())
