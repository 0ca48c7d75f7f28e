"""Figure 5: lookup failure ratio.

Panel (a): failure ratio vs p_s for TTL in {1, 2, 4}.  Expected shape
(Section 6.2): ~0 below p_s = 0.5 for every TTL (structured-grade
accuracy), rising with p_s, and falling sharply as TTL grows (the paper
quotes 18% / 14% / 4% at p_s = 0.9 for TTL 1 / 2 / 4).

Panel (b): failure ratio vs fraction of crashed peers, for several p_s.
Expected shape: linear in the crash fraction and flat in p_s -- with
the spread placement scheme the data lost is simply proportional to the
peers lost, wherever they sit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..core.config import HybridConfig
from ..exec import CellExecutor, CellSpec
from ..metrics.report import format_grid
from .common import CellResult, Scale

__all__ = ["Fig5aResult", "Fig5bResult", "run_5a", "run_5b", "main"]

TTLS: Sequence[int] = (1, 2, 4)
PS_GRID_5A: Sequence[float] = (0.0, 0.3, 0.5, 0.7, 0.8, 0.9)
CRASH_FRACTIONS: Sequence[float] = (0.0, 0.05, 0.1, 0.2, 0.3)
PS_GRID_5B: Sequence[float] = (0.3, 0.6, 0.9)


@dataclass
class Fig5aResult:
    """failure ratio indexed [ttl][p_s]."""

    cells: Dict[int, Dict[float, CellResult]]

    def failure(self, ttl: int, p_s: float) -> float:
        return self.cells[ttl][p_s].failure_ratio


@dataclass
class Fig5bResult:
    """failure ratio indexed [p_s][crash_fraction]."""

    cells: Dict[float, Dict[float, CellResult]]

    def failure(self, p_s: float, fraction: float) -> float:
        return self.cells[p_s][fraction].failure_ratio


def run_5a(
    scale: Scale,
    ttls: Sequence[int] = TTLS,
    ps_values: Sequence[float] = PS_GRID_5A,
    delta: int = 3,
    executor: CellExecutor | None = None,
) -> Fig5aResult:
    """Sweep (TTL, p_s); data placed with scheme 2, no churn."""
    executor = executor or CellExecutor(jobs=1)
    keys = [(ttl, p_s) for ttl in ttls for p_s in ps_values]
    specs = [
        CellSpec(HybridConfig(p_s=p_s, delta=delta, ttl=ttl), scale, tag="fig5a")
        for ttl, p_s in keys
    ]
    cells: Dict[int, Dict[float, CellResult]] = {}
    for (ttl, p_s), cell in zip(keys, executor.map(specs)):
        cells.setdefault(ttl, {})[p_s] = cell
    return Fig5aResult(cells=cells)


def run_5b(
    scale: Scale,
    fractions: Sequence[float] = CRASH_FRACTIONS,
    ps_values: Sequence[float] = PS_GRID_5B,
    delta: int = 3,
    ttl: int = 4,
    executor: CellExecutor | None = None,
) -> Fig5bResult:
    """Sweep (p_s, crash fraction) with heartbeats + repair enabled."""
    executor = executor or CellExecutor(jobs=1)
    keys = [(p_s, fraction) for p_s in ps_values for fraction in fractions]
    specs = [
        CellSpec(
            HybridConfig(
                p_s=p_s,
                delta=delta,
                ttl=ttl,
                heartbeats_enabled=True,
                lookup_timeout=30_000.0,
            ),
            scale,
            crash_fraction=fraction,
            tag="fig5b",
        )
        for p_s, fraction in keys
    ]
    cells: Dict[float, Dict[float, CellResult]] = {}
    for (p_s, fraction), cell in zip(keys, executor.map(specs)):
        cells.setdefault(p_s, {})[fraction] = cell
    return Fig5bResult(cells=cells)


def main(scale: Scale | None = None, executor: CellExecutor | None = None) -> str:
    scale = scale or Scale.quick()
    a = run_5a(scale, executor=executor)
    b = run_5b(scale, executor=executor)
    grid_a = {
        f"{ps:.1f}": {ttl: f"{a.failure(ttl, ps):.3f}" for ttl in TTLS}
        for ps in PS_GRID_5A
    }
    grid_b = {
        f"{fr:.2f}": {f"{ps:.1f}": f"{b.failure(ps, fr):.3f}" for ps in PS_GRID_5B}
        for fr in CRASH_FRACTIONS
    }
    parts = [
        format_grid(
            "p_s", [f"{ps:.1f}" for ps in PS_GRID_5A],
            "TTL", list(TTLS), grid_a,
            title=f"Fig. 5a -- lookup failure ratio (N={scale.n_peers})",
        ),
        "",
        format_grid(
            "crash", [f"{fr:.2f}" for fr in CRASH_FRACTIONS],
            "p_s", [f"{ps:.1f}" for ps in PS_GRID_5B], grid_b,
            title=f"Fig. 5b -- failure ratio under peer crash (N={scale.n_peers})",
        ),
    ]
    return "\n".join(parts)


if __name__ == "__main__":  # pragma: no cover
    print(main())
