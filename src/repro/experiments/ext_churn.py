"""Extension experiment: service quality under *sustained* churn.

The paper's churn experiment (Fig. 5b) is a single batch of crashes.
Measurement studies it cites [refs 21, 22] show real systems churn
continuously, so this experiment drives Poisson joins and exponential
lifetimes *while* the lookup workload runs and reports how the hybrid
degrades with the churn intensity.

Expected: failure ratio grows with churn rate (data dies with crashed
peers faster than the repair machinery can matter -- the system has no
replication), but the topology invariants hold throughout and graceful
departures cost nothing (their data is handed over).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from ..core.config import HybridConfig
from ..exec import CellExecutor
from ..metrics.report import format_table
from ..workloads.churn import PoissonChurn, apply_churn
from .common import Scale, populate_cell

__all__ = ["ChurnCell", "run", "main"]

# Mean lifetimes in ms; smaller = harsher churn.
LIFETIMES: Sequence[float] = (600_000.0, 240_000.0, 120_000.0)


@dataclass(frozen=True)
class ChurnCell:
    """Outcome of one churn intensity."""

    mean_lifetime: float
    crash_probability: float
    joins: int
    departures: int
    failure_ratio: float
    mean_latency: float

    @property
    def label(self) -> str:
        return f"{self.mean_lifetime / 1000:.0f}s"


def _churn_cell(args: tuple) -> ChurnCell:
    """Run one churn intensity end to end."""
    lifetime, scale, churn_window, crash_probability = args
    config = HybridConfig(
        p_s=0.7,
        ttl=6,
        heartbeats_enabled=True,
        lookup_timeout=20_000.0,
    )
    system, workload = populate_cell(config, scale)
    peers = [p.address for p in system.alive_peers()]
    churn = PoissonChurn(
        join_rate=scale.n_peers / (2.0 * lifetime),  # roughly steady population
        mean_lifetime=lifetime,
        crash_probability=crash_probability,
    )
    events = churn.generate(
        churn_window, existing=peers, rng=system.rngs.stream("churn-schedule")
    )
    joins, leaves, crashes = apply_churn(system, events)
    system.settle(30_000.0)  # let repairs finish before measuring
    alive = [p.address for p in system.alive_peers()]
    system.run_lookups(workload.sample_lookups(scale.n_lookups, alive))
    stats = system.query_stats()
    return ChurnCell(
        mean_lifetime=lifetime,
        crash_probability=crash_probability,
        joins=joins,
        departures=leaves + crashes,
        failure_ratio=stats.failure_ratio,
        mean_latency=stats.mean_latency,
    )


def run(
    n_peers: int = 80,
    n_keys: int = 240,
    n_lookups: int = 240,
    lifetimes: Sequence[float] = LIFETIMES,
    churn_window: float = 60_000.0,
    crash_probability: float = 0.5,
    seed: int = 0,
    executor: CellExecutor | None = None,
) -> Dict[float, ChurnCell]:
    """One cell per churn intensity (mean peer lifetime)."""
    executor = executor or CellExecutor(jobs=1)
    scale = Scale(n_peers, n_keys, n_lookups, seed)
    tasks = [(lifetime, scale, churn_window, crash_probability) for lifetime in lifetimes]
    cells = executor.map_fn(_churn_cell, tasks, tag="churn")
    return {lifetime: cell for lifetime, cell in zip(lifetimes, cells)}


def main(
    n_peers: int = 80, seed: int = 0, executor: CellExecutor | None = None
) -> str:
    cells = run(n_peers=n_peers, seed=seed, executor=executor)
    rows = [
        [
            cell.label,
            cell.joins,
            cell.departures,
            f"{cell.failure_ratio:.3f}",
            f"{cell.mean_latency:.0f}",
        ]
        for cell in cells.values()
    ]
    return format_table(
        ["mean lifetime", "joins", "departures", "failure", "latency (ms)"],
        rows,
        title=(
            f"Extension -- sustained churn over a 60 s window "
            f"(N={n_peers}, p_s=0.7, 50% crashes)"
        ),
    )


if __name__ == "__main__":  # pragma: no cover
    print(main())
