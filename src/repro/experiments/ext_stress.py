"""Extension experiment: physical link stress, basic vs binned.

Section 5.2 motivates topology awareness through *link stress* -- "the
number of copies of a message transmitted over a certain physical
link" -- but Fig. 6b only reports latency.  This experiment measures
the stress itself: run the same workload with and without landmark
binning and compare the per-physical-link transmission counts.

Expected: binning co-locates s-networks with their members, so intra-
s-network traffic (floods, join walks, heartbeats) stops criss-crossing
the backbone; total transmissions and the hot-link maximum both drop at
mid-to-high p_s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from ..core.config import HybridConfig
from ..exec import CellExecutor
from ..metrics.report import format_table
from ..net.stress import StressSummary
from .common import Scale, populate_cell

__all__ = ["StressCell", "run", "main"]

PS_GRID: Sequence[float] = (0.4, 0.7, 0.9)


@dataclass(frozen=True)
class StressCell:
    """Link-stress outcome of one configuration."""

    p_s: float
    variant: str  # "base" | "binned"
    summary: StressSummary
    lookups: int

    @property
    def transmissions_per_lookup(self) -> float:
        return self.summary.total_transmissions / max(1, self.lookups)


def _stress_cell(args: tuple) -> StressCell:
    """Run one (p_s, variant) workload with link-stress tracking on."""
    p_s, variant, scale, n_landmarks = args
    config = HybridConfig(
        p_s=p_s, n_landmarks=n_landmarks if variant == "binned" else 0
    )
    system, workload = populate_cell(config, scale, track_stress=True)
    peers = [p.address for p in system.alive_peers()]
    # Only lookup traffic counts toward the comparison.
    system.stress.reset()
    system.run_lookups(workload.sample_lookups(scale.n_lookups, peers))
    return StressCell(
        p_s=p_s,
        variant=variant,
        summary=system.stress.summary(),
        lookups=scale.n_lookups,
    )


def run(
    n_peers: int = 100,
    n_keys: int = 300,
    n_lookups: int = 300,
    ps_values: Sequence[float] = PS_GRID,
    n_landmarks: int = 8,
    seed: int = 0,
    executor: CellExecutor | None = None,
) -> Dict[tuple, StressCell]:
    """Measure link stress for (p_s, variant) cells."""
    executor = executor or CellExecutor(jobs=1)
    keys = [(p_s, variant) for p_s in ps_values for variant in ("base", "binned")]
    scale = Scale(n_peers, n_keys, n_lookups, seed)
    tasks = [(p_s, variant, scale, n_landmarks) for p_s, variant in keys]
    cells = executor.map_fn(_stress_cell, tasks, tag="stress")
    return {key: cell for key, cell in zip(keys, cells)}


def main(
    n_peers: int = 100,
    ps_values: Sequence[float] = PS_GRID,
    seed: int = 0,
    executor: CellExecutor | None = None,
) -> str:
    cells = run(n_peers=n_peers, ps_values=ps_values, seed=seed, executor=executor)
    rows = []
    for p_s in ps_values:
        for variant in ("base", "binned"):
            cell = cells[(p_s, variant)]
            rows.append(
                [
                    f"{p_s:.1f}",
                    variant,
                    cell.summary.total_transmissions,
                    f"{cell.transmissions_per_lookup:.0f}",
                    cell.summary.max_stress,
                ]
            )
    return format_table(
        ["p_s", "variant", "transmissions", "per lookup", "hottest link"],
        rows,
        title=f"Extension -- physical link stress (Section 5.2), N={n_peers}",
    )


if __name__ == "__main__":  # pragma: no cover
    print(main())
