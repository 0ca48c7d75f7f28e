"""repro.exec -- parallel sweep execution + content-addressed memoization.

The experiments layer declares its sweep cells up front; this package
runs them: :class:`CellExecutor` fans independent cells out over a
process pool (``--jobs`` / ``REPRO_JOBS`` / all cores; ``jobs=1`` is a
zero-machinery inline loop) and :class:`CellCache` memoizes
``run_cell`` results on disk keyed by SHA-256 of the canonicalized
inputs plus a fingerprint of the package source, so unchanged cells are
never recomputed -- across runs, processes, and even across experiments
that happen to share cells.

See EXPERIMENTS.md ("Running paper scale fast") for the user-facing
knobs; ``python3 bench/run.py --workload sweep_quick`` measures the
cold (``jobs=2``) and warm-cache sweep and checks their digests.
"""

from .cache import CACHE_ENV, CellCache, cell_key, code_fingerprint, default_cache_root
from .pool import (
    CELL_SECONDS_BUCKETS,
    CellExecutionError,
    CellExecutor,
    CellSpec,
    ExecStats,
    resolve_jobs,
)

__all__ = [
    "CACHE_ENV",
    "CellCache",
    "cell_key",
    "code_fingerprint",
    "default_cache_root",
    "CELL_SECONDS_BUCKETS",
    "CellExecutionError",
    "CellExecutor",
    "CellSpec",
    "ExecStats",
    "resolve_jobs",
]
