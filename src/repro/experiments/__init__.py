"""Reproduction experiments: one module per paper table/figure.

* :mod:`~repro.experiments.fig3_analysis` -- Fig. 3a/3b (closed forms);
* :mod:`~repro.experiments.fig4_distribution` -- Fig. 4 (placement PDFs);
* :mod:`~repro.experiments.fig5_failure` -- Fig. 5a/5b (failure ratio);
* :mod:`~repro.experiments.fig6_latency` -- Fig. 6a/6b (latency and
  the heterogeneity/topology-awareness enhancements);
* :mod:`~repro.experiments.table2_connum` -- Table 2 (connum grid).

Shared sweep machinery lives in :mod:`~repro.experiments.common`; every
driver declares its cells up front and maps them through a
:class:`~repro.exec.CellExecutor` (``executor=`` parameter; pass one
configured with ``jobs > 1`` and a :class:`~repro.exec.CellCache` to
fan the grid out over worker processes with on-disk memoization -- see
EXPERIMENTS.md, "Running paper scale fast").  ``repro experiment
<name>... [--out DIR]`` is the one command that runs them; the tier-1
tests check each figure's shapes at ``Scale.quick()``, and
EXPERIMENTS.md records the larger runs.
"""

from .common import DEFAULT_PS_GRID, CellResult, Scale, run_cell

__all__ = ["DEFAULT_PS_GRID", "CellResult", "Scale", "run_cell"]
