"""Table 2: total *connum* under different p_s and TTL values.

connum is "the number of peers all the data lookup requests contact
during the simulation" -- a bandwidth proxy.  Expected shape
(Section 6.3):

* connum falls roughly linearly as p_s grows (the ring leg, which is
  proportional to the t-peer count, dominates);
* at p_s = 0.9 connum is ~10% of the structured endpoint;
* TTL only matters at high p_s, and then only slightly (larger TTL ->
  slightly larger connum).

The paper's absolute numbers (4.88M at p_s = 0) come from ~10k lookups
over 1,000 peers with linear ring forwarding; scaled-down runs keep the
shape because every term is linear in lookups x peers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from ..core.config import HybridConfig
from ..exec import CellExecutor, CellSpec
from ..metrics.report import format_grid
from .common import CellResult, Scale

__all__ = ["Table2Result", "run", "main"]

TTLS: Sequence[int] = (1, 2, 4)
PS_GRID: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


@dataclass
class Table2Result:
    """connum indexed [p_s][ttl]."""

    cells: Dict[float, Dict[int, CellResult]]

    def connum(self, p_s: float, ttl: int) -> int:
        return self.cells[p_s][ttl].connum


def run(
    scale: Scale,
    ps_values: Sequence[float] = PS_GRID,
    ttls: Sequence[int] = TTLS,
    delta: int = 3,
    executor: CellExecutor | None = None,
) -> Table2Result:
    """Sweep (p_s, TTL) with linear ring forwarding (the paper's mode)."""
    executor = executor or CellExecutor(jobs=1)
    keys = [(p_s, ttl) for p_s in ps_values for ttl in ttls]
    specs = [
        CellSpec(
            HybridConfig(p_s=p_s, delta=delta, ttl=ttl, ring_routing="linear"),
            scale,
            tag="table2",
        )
        for p_s, ttl in keys
    ]
    cells: Dict[float, Dict[int, CellResult]] = {}
    for (p_s, ttl), cell in zip(keys, executor.map(specs)):
        cells.setdefault(p_s, {})[ttl] = cell
    return Table2Result(cells=cells)


def main(
    scale: Scale | None = None,
    ps_values: Sequence[float] = PS_GRID,
    executor: CellExecutor | None = None,
) -> str:
    scale = scale or Scale.quick()
    result = run(scale, ps_values=ps_values, executor=executor)
    grid = {
        f"{ps:.1f}": {f"TTL={t}": result.connum(ps, t) for t in TTLS}
        for ps in ps_values
    }
    return format_grid(
        "p_s",
        [f"{ps:.1f}" for ps in ps_values],
        "",
        [f"TTL={t}" for t in TTLS],
        grid,
        title=(
            f"Table 2 -- total connum, N={scale.n_peers}, "
            f"{scale.n_lookups} lookups"
        ),
    )


if __name__ == "__main__":  # pragma: no cover
    print(main())
