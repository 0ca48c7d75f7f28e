"""Figure 4: PDF of data items per peer, placement scheme 1 vs 2.

The paper inserts data into 1,000-peer systems at p_s in {0, 0.4, 0.9}
and plots the per-peer item-count PDF for both placement schemes.  The
headline observations to reproduce:

* scheme 1 ("direct"): at high p_s almost all data piles onto the few
  t-peers -- 85% of peers hold nothing at p_s = 0.9, max > 500;
* scheme 2 ("spread"): the zero-item fraction collapses (12% in the
  paper's Fig. 4f) and loads flatten;
* at small p_s the schemes coincide (t-peers are most of the system).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Sequence, Tuple

import numpy as np

from ..core.config import PLACEMENT_DIRECT, PLACEMENT_SPREAD, HybridConfig
from ..exec import CellExecutor
from ..metrics.distributions import DistributionSummary, items_pdf, summarize_distribution
from ..metrics.report import format_table
from .common import Scale, populate_cell

__all__ = ["Fig4Cell", "run", "main"]

PS_VALUES: Sequence[float] = (0.0, 0.4, 0.9)
SCHEMES: Sequence[str] = (PLACEMENT_DIRECT, PLACEMENT_SPREAD)


@dataclass
class Fig4Cell:
    """One panel of Fig. 4: a placement scheme at one p_s."""

    placement: str
    p_s: float
    counts: np.ndarray
    pdf: Tuple[np.ndarray, np.ndarray]
    summary: DistributionSummary


@dataclass(frozen=True)
class _PanelSpec:
    """Work unit of one panel (picklable across the process pool)."""

    placement: str
    p_s: float
    scale: Scale  # n_keys already set to items_per_peer * n_peers
    delta: int


def _panel_cell(spec: _PanelSpec) -> Fig4Cell:
    """Build one system, insert the workload, measure the distribution."""
    config = HybridConfig(p_s=spec.p_s, delta=spec.delta, placement=spec.placement)
    system, _ = populate_cell(config, spec.scale)
    counts = system.data_distribution()
    return Fig4Cell(
        placement=spec.placement,
        p_s=spec.p_s,
        counts=counts,
        pdf=items_pdf(counts),
        summary=summarize_distribution(counts),
    )


def run(
    scale: Scale,
    ps_values: Sequence[float] = PS_VALUES,
    delta: int = 3,
    items_per_peer: int = 20,
    executor: CellExecutor | None = None,
) -> Dict[Tuple[str, float], Fig4Cell]:
    """Measure one (scheme, p_s) placement panel per cell.

    ``items_per_peer`` matches the paper's density (Fig. 4a shows
    counts up to ~80 for 1,000 peers).
    """
    executor = executor or CellExecutor(jobs=1)
    scale = replace(scale, n_keys=items_per_peer * scale.n_peers)
    specs = [
        _PanelSpec(placement, p_s, scale, delta)
        for placement in SCHEMES
        for p_s in ps_values
    ]
    panels = executor.map_fn(_panel_cell, specs, tag="fig4")
    return {(s.placement, s.p_s): cell for s, cell in zip(specs, panels)}


def main(scale: Scale | None = None, executor: CellExecutor | None = None) -> str:
    """Render the six panels' summary statistics as a table."""
    scale = scale or Scale.quick()
    cells = run(scale, executor=executor)
    rows = []
    for (placement, p_s), cell in sorted(cells.items()):
        s = cell.summary
        rows.append(
            [
                placement,
                f"{p_s:.1f}",
                s.total_items,
                f"{s.fraction_zero:.0%}",
                f"{s.fraction_below_20:.0%}",
                s.max,
                f"{s.gini:.3f}",
            ]
        )
    return format_table(
        ["scheme", "p_s", "items", "zero", "<20", "max", "gini"],
        rows,
        title=(
            "Fig. 4 -- data items per peer under the two placement schemes "
            f"(N={scale.n_peers})"
        ),
    )


if __name__ == "__main__":  # pragma: no cover
    print(main())
