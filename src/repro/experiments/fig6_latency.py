"""Figure 6: average lookup latency and the Section 5 enhancements.

Panel (a): latency vs p_s, with and without link-heterogeneity
consideration (Section 5.1).  Expected: latency decreases in p_s
(fewer t-peers on the ring leg), and the heterogeneity-aware variant
sits below the base curve, most visibly for p_s in [0.4, 0.8] (the
paper quotes ~20% at p_s = 0.7).

Panel (b): latency vs p_s, basic vs topology-aware binning with 8 and
12 landmarks (Section 5.2).  Expected: identical at p_s = 0, the
binned curves drop faster as p_s grows, more landmarks help more, and
all curves converge by p_s ~ 0.9 (many small s-networks are already
physically local).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from ..core.config import HybridConfig
from ..exec import CellExecutor, CellSpec
from ..metrics.report import format_series
from .common import CellResult, Scale

__all__ = ["Fig6aResult", "Fig6bResult", "run_6a", "run_6b", "main"]

PS_GRID: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.7, 0.8, 0.9)
LANDMARK_COUNTS: Sequence[int] = (8, 12)


@dataclass
class Fig6aResult:
    """latency indexed [variant][p_s]; variants 'base', 'hetero'."""

    cells: Dict[str, Dict[float, CellResult]]

    def latency(self, variant: str, p_s: float) -> float:
        return self.cells[variant][p_s].mean_latency


@dataclass
class Fig6bResult:
    """latency indexed [variant][p_s]; variants 'base', 'bin8', 'bin12'."""

    cells: Dict[str, Dict[float, CellResult]]

    def latency(self, variant: str, p_s: float) -> float:
        return self.cells[variant][p_s].mean_latency


def run_6a(
    scale: Scale,
    ps_values: Sequence[float] = PS_GRID,
    delta: int = 3,
    ttl: int = 4,
    executor: CellExecutor | None = None,
) -> Fig6aResult:
    """With/without heterogeneity-aware role assignment + connect points."""
    executor = executor or CellExecutor(jobs=1)
    keys = []
    specs = []
    for p_s in ps_values:
        base = HybridConfig(p_s=p_s, delta=delta, ttl=ttl)
        hetero = base.with_changes(heterogeneity_aware=True)
        keys += [("base", p_s), ("hetero", p_s)]
        specs += [
            CellSpec(base, scale, tag="fig6a"),
            CellSpec(hetero, scale, tag="fig6a"),
        ]
    cells: Dict[str, Dict[float, CellResult]] = {"base": {}, "hetero": {}}
    for (variant, p_s), cell in zip(keys, executor.map(specs)):
        cells[variant][p_s] = cell
    return Fig6aResult(cells=cells)


def run_6b(
    scale: Scale,
    ps_values: Sequence[float] = PS_GRID,
    landmark_counts: Sequence[int] = LANDMARK_COUNTS,
    delta: int = 3,
    ttl: int = 4,
    executor: CellExecutor | None = None,
) -> Fig6bResult:
    """Basic vs landmark-binned s-network assignment."""
    executor = executor or CellExecutor(jobs=1)
    keys = []
    specs = []
    for p_s in ps_values:
        base = HybridConfig(p_s=p_s, delta=delta, ttl=ttl)
        keys.append(("base", p_s))
        specs.append(CellSpec(base, scale, tag="fig6b"))
        for n in landmark_counts:
            binned = base.with_changes(n_landmarks=n)
            keys.append((f"bin{n}", p_s))
            specs.append(CellSpec(binned, scale, tag="fig6b"))
    cells: Dict[str, Dict[float, CellResult]] = {"base": {}}
    for n in landmark_counts:
        cells[f"bin{n}"] = {}
    for (variant, p_s), cell in zip(keys, executor.map(specs)):
        cells[variant][p_s] = cell
    return Fig6bResult(cells=cells)


def main(scale: Scale | None = None, executor: CellExecutor | None = None) -> str:
    scale = scale or Scale.quick()
    a = run_6a(scale, executor=executor)
    b = run_6b(scale, executor=executor)
    xs = [f"{ps:.1f}" for ps in PS_GRID]
    parts = [
        format_series(
            "p_s", xs,
            {
                "base": [f"{a.latency('base', ps):.0f}" for ps in PS_GRID],
                "heterogeneity": [f"{a.latency('hetero', ps):.0f}" for ps in PS_GRID],
            },
            title=f"Fig. 6a -- mean lookup latency, ms (N={scale.n_peers})",
        ),
        "",
        format_series(
            "p_s", xs,
            {
                "base": [f"{b.latency('base', ps):.0f}" for ps in PS_GRID],
                **{
                    f"{n} landmarks": [
                        f"{b.latency(f'bin{n}', ps):.0f}" for ps in PS_GRID
                    ]
                    for n in LANDMARK_COUNTS
                },
            },
            title=f"Fig. 6b -- mean lookup latency, ms (N={scale.n_peers})",
        ),
    ]
    return "\n".join(parts)


if __name__ == "__main__":  # pragma: no cover
    print(main())
