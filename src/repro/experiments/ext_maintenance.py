"""Extension experiment: topology maintenance cost vs p_s.

Section 3.1's core argument for the hybrid design: "the hybrid system
can effectively reduce the topology maintenance overhead caused by peer
joining or leaving ... a large portion of peers join the s-networks
directly without disturbing the t-network; and ... an s-peer can be
selected to substitute the leaving t-peer".

The paper never plots this, so this experiment does: drive a fixed
number of joins and (graceful) leaves through systems at different
p_s and count the control messages each membership event cost.  The
expected shape is monotone decreasing in p_s -- s-joins are one walk
down a shallow tree, s-leaves are a handful of notifications, and even
t-leaves become a constant-cost handoff instead of a ring repair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from ..core.config import HybridConfig
from ..core.hybrid import HybridSystem
from ..exec import CellExecutor
from ..metrics.report import format_table

__all__ = ["MaintenanceCell", "churn_messages", "run", "main"]

PS_GRID: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.8, 0.9)


@dataclass(frozen=True)
class MaintenanceCell:
    """Control-message cost of churn at one p_s."""

    p_s: float
    joins: int
    leaves: int
    messages: int

    @property
    def per_event(self) -> float:
        total = self.joins + self.leaves
        return self.messages / total if total else 0.0


def churn_messages(system: HybridSystem, events: int, rng) -> int:
    """Alternate joins and graceful leaves (victims drawn from ``rng``),
    draining the engine after each; return the messages they sent."""
    before = system.transport.messages_sent
    for i in range(events):
        if i % 2 == 0:
            system.add_peer()
        else:
            alive = [p.address for p in system.alive_peers()]
            system.leave_peers([int(alive[int(rng.integers(0, len(alive)))])])
        system.engine.run()
    return system.transport.messages_sent - before


def _maintenance_cell(args: tuple) -> MaintenanceCell:
    """Drive churn_events alternating joins/leaves at one p_s."""
    p_s, n_peers, churn_events, seed = args
    system = HybridSystem(HybridConfig(p_s=p_s), n_peers=n_peers, seed=seed)
    system.build()
    system.engine.run()
    messages = churn_messages(system, churn_events, system.rngs.stream("maintenance"))
    return MaintenanceCell(
        p_s=p_s,
        joins=(churn_events + 1) // 2,
        leaves=churn_events // 2,
        messages=messages,
    )


def run(
    n_peers: int = 100,
    churn_events: int = 40,
    ps_values: Sequence[float] = PS_GRID,
    seed: int = 0,
    executor: CellExecutor | None = None,
) -> Dict[float, MaintenanceCell]:
    """Measure messages per membership event across p_s.

    Joins and leaves alternate; only control traffic flows (no data
    operations), so the transport's send counter isolates maintenance.
    """
    executor = executor or CellExecutor(jobs=1)
    tasks = [(p_s, n_peers, churn_events, seed) for p_s in ps_values]
    cells = executor.map_fn(_maintenance_cell, tasks, tag="maintenance")
    return {p_s: cell for p_s, cell in zip(ps_values, cells)}


def main(
    n_peers: int = 100,
    churn_events: int = 40,
    ps_values: Sequence[float] = PS_GRID,
    seed: int = 0,
    executor: CellExecutor | None = None,
) -> str:
    cells = run(
        n_peers=n_peers,
        churn_events=churn_events,
        ps_values=ps_values,
        seed=seed,
        executor=executor,
    )
    rows = [
        [f"{ps:.1f}", cells[ps].messages, f"{cells[ps].per_event:.1f}"]
        for ps in ps_values
    ]
    return format_table(
        ["p_s", "control msgs", "msgs/event"],
        rows,
        title=(
            f"Extension -- maintenance cost of {churn_events} churn events "
            f"(N={n_peers})"
        ),
    )


if __name__ == "__main__":  # pragma: no cover
    print(main())
