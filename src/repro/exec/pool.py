"""Parallel sweep execution over a process pool.

Every reproduction experiment is a grid of fully independent,
deterministic cells.  :class:`CellExecutor` is the single place that
turns such a grid into results:

* ``map(specs)`` runs :func:`~repro.experiments.common.run_cell` cells,
  consulting an optional content-addressed :class:`~repro.exec.cache.
  CellCache` first and fanning the misses out over a
  :class:`~concurrent.futures.ProcessPoolExecutor`;
* ``map_fn(fn, items)`` fans out arbitrary pure, picklable work units
  (the experiments whose cells are not plain ``run_cell`` calls --
  Fig. 4 placement panels, the ``ext_*`` studies).

Both run their cells through one fan-out, inline or over the pool.

Submission order is always preserved in the returned list, so a sweep
produces the same result *sequence* -- and therefore byte-identical
rendered tables -- at any ``jobs`` value and from a warm cache.

``jobs=1`` (what the experiment drivers build when no executor is
passed) runs inline with zero subprocess machinery: tests, debuggers
and profilers see plain function calls.  ``jobs`` resolves from the
``--jobs`` flag, the ``REPRO_JOBS`` environment variable, or
``os.cpu_count()``.

A worker failure is re-raised in the parent as
:class:`CellExecutionError` carrying the owning cell's label and the
worker's full traceback text.

Progress is observable two ways: the executor's
:class:`~repro.obs.registry.MetricsRegistry` (``repro_sweep_cells_total``
by status, ``repro_sweep_cell_seconds`` histogram) and, when
``progress=True``, a stderr line per completed cell (rewritten in
place on a TTY).
"""

from __future__ import annotations

import os
import sys
import time
import traceback

from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, TextIO, Tuple

from ..experiments.common import CellResult, Scale, run_cell
from ..core.config import HybridConfig
from ..obs.registry import MetricsRegistry
from .cache import CellCache

__all__ = [
    "CellSpec",
    "CellExecutor",
    "CellExecutionError",
    "ExecStats",
    "resolve_jobs",
    "CELL_SECONDS_BUCKETS",
]

JOBS_ENV = "REPRO_JOBS"

# Cells range from ~0.1 s (quick scale) to minutes (paper scale).
CELL_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1, 2, 5, 10, 30, 60, 120, 300, 600
)


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker-count precedence: explicit > ``REPRO_JOBS`` > cpu count."""
    if jobs is None:
        env = os.environ.get(JOBS_ENV, "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(f"{JOBS_ENV} must be an integer, got {env!r}")
        else:
            jobs = os.cpu_count() or 1
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


@dataclass(frozen=True)
class CellSpec:
    """One ``run_cell`` invocation, declared up front.

    ``tag`` labels progress lines and error messages only -- it is *not*
    part of the cache identity, so identical cells declared by different
    experiments (Fig. 5a and Table 2 share 18) deduplicate.
    ``system_out`` mirrors ``run_cell``'s escape hatch; a built
    :class:`~repro.core.hybrid.HybridSystem` cannot cross a process
    boundary, so it forces ``jobs=1`` and bypasses the cache.
    """

    config: HybridConfig
    scale: Scale
    crash_fraction: float = 0.0
    tag: str = ""
    system_out: Optional[Dict[str, Any]] = field(default=None, compare=False)

    @property
    def label(self) -> str:
        bits = [self.tag] if self.tag else []
        bits.append(f"p_s={self.config.p_s:g}")
        bits.append(f"ttl={self.config.ttl}")
        bits.append(f"N={self.scale.n_peers}")
        if self.crash_fraction:
            bits.append(f"crash={self.crash_fraction:g}")
        return " ".join(bits)


class CellExecutionError(RuntimeError):
    """A cell failed inside a worker process."""

    def __init__(self, label: str, worker_traceback: str) -> None:
        self.label = label
        self.worker_traceback = worker_traceback
        super().__init__(
            f"sweep cell [{label}] failed in worker:\n{worker_traceback}"
        )


@dataclass
class ExecStats:
    """Cumulative counters across every ``map``/``map_fn`` call."""

    cells_total: int = 0
    executed: int = 0
    cache_hits: int = 0
    errors: int = 0
    wall_seconds: float = 0.0
    cell_seconds: float = 0.0


# ----------------------------------------------------------------------
# Module-level, so picklable by reference.  ``_fn_worker`` runs one
# pooled call and never raises -- a failure travels back as
# (False, traceback_text) so the parent controls presentation and pool
# teardown.
# ----------------------------------------------------------------------
def _run_spec(spec: CellSpec) -> CellResult:
    return run_cell(
        spec.config, spec.scale,
        crash_fraction=spec.crash_fraction, system_out=spec.system_out,
    )


def _fn_worker(fn: Callable[[Any], Any], item: Any) -> Tuple[bool, Any, float]:
    t0 = time.perf_counter()
    try:
        return True, fn(item), time.perf_counter() - t0
    except BaseException:
        return False, traceback.format_exc(), time.perf_counter() - t0


class CellExecutor:
    """Fans independent sweep cells out over worker processes.

    One executor is typically shared by every sweep of a CLI command or
    experiment bundle, so its stats (and its cache) span experiments.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[CellCache] = None,
        progress: bool = False,
        registry: Optional[MetricsRegistry] = None,
        stream: Optional[TextIO] = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        self.progress = progress
        self.stream = stream if stream is not None else sys.stderr
        self.registry = registry if registry is not None else MetricsRegistry()
        self._cells_metric = self.registry.counter(
            "repro_sweep_cells_total",
            "sweep cells finished, by status (run|cache_hit|error)",
            ("status",),
        )
        self._seconds_metric = self.registry.histogram(
            "repro_sweep_cell_seconds",
            "wall-clock seconds of one executed sweep cell",
            CELL_SECONDS_BUCKETS,
        )
        self.stats = ExecStats()
        self._line_open = False  # a \r progress line awaiting its newline

    # ------------------------------------------------------------------
    def map(self, specs: Sequence[CellSpec]) -> List[CellResult]:
        """Run every cell; return results in submission order."""
        specs = list(specs)
        self.stats.cells_total += len(specs)
        if self.jobs > 1:
            for spec in specs:
                if spec.system_out is not None:
                    raise ValueError(
                        f"cell [{spec.label}] requests system_out, which cannot "
                        f"cross a process boundary; run it with jobs=1"
                    )
        t_start = time.perf_counter()
        results: List[Optional[CellResult]] = [None] * len(specs)
        misses: List[Tuple[int, CellSpec, str]] = []
        for i, spec in enumerate(specs):
            hit = None
            if self.cache is not None and spec.system_out is None:
                hit = self.cache.get(spec)
            if hit is not None:
                results[i] = hit
                self._tick("cache_hit", 0.0, spec.label)
            else:
                misses.append((i, spec, spec.label))

        def store(i: int, result: CellResult) -> None:
            if self.cache is not None and specs[i].system_out is None:
                self.cache.put(specs[i], result)
            results[i] = result

        self._fan_out(_run_spec, misses, store, t_start)
        return results  # type: ignore[return-value]

    def map_fn(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        tag: str = "",
    ) -> List[Any]:
        """Fan out ``fn(item)`` for each item, preserving order.

        ``fn`` must be a module-level (picklable) pure function.  No
        caching: these cells' results are experiment-specific objects
        with no canonical serialized form.
        """
        items = list(items)
        self.stats.cells_total += len(items)
        t_start = time.perf_counter()
        results: List[Any] = [None] * len(items)
        tasks = [(i, item, f"{tag}[{i}]" if tag else f"cell[{i}]")
                 for i, item in enumerate(items)]
        self._fan_out(fn, tasks, results.__setitem__, t_start)
        return results

    # ------------------------------------------------------------------
    def _fan_out(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Tuple[int, Any, str]],
        store: Callable[[int, Any], None],
        t_start: float,
    ) -> None:
        """Run ``fn`` on each ``(index, item, label)``; ``store`` each result.

        Inline at ``jobs=1`` (a failure raises the original exception),
        otherwise over the pool in completion order (a failure raises
        :class:`CellExecutionError` with the cell's label).  The call is
        billed wall time from ``t_start``, the caller's cache reads included.
        """
        if self.jobs == 1:
            for i, item, label in tasks:
                t0 = time.perf_counter()
                result = fn(item)
                elapsed = time.perf_counter() - t0
                store(i, result)
                self._tick("run", elapsed, label)
        elif tasks:
            self._pooled(fn, tasks, store)
        self.stats.wall_seconds += time.perf_counter() - t_start
        self._finish_line()

    def _pooled(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Tuple[int, Any, str]],
        store: Callable[[int, Any], None],
    ) -> None:
        """Submit tasks to the pool, collect in completion order."""
        workers = min(self.jobs, len(tasks))
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            futures = {
                pool.submit(_fn_worker, fn, item): (i, label)
                for i, item, label in tasks
            }
            for future in as_completed(futures):
                i, label = futures[future]
                ok, payload, elapsed = future.result()
                if not ok:
                    self._tick("error", elapsed, label)
                    raise CellExecutionError(label, payload)
                store(i, payload)
                self._tick("run", elapsed, label)
        except BaseException:
            pool.shutdown(wait=True, cancel_futures=True)
            raise
        else:
            pool.shutdown(wait=True)

    def _tick(self, status: str, seconds: float, label: str) -> None:
        self._cells_metric.labels(status).inc()
        if status == "run":
            self.stats.executed += 1
            self.stats.cell_seconds += seconds
            self._seconds_metric.observe(seconds)
        elif status == "cache_hit":
            self.stats.cache_hits += 1
        else:
            self.stats.errors += 1
        if not self.progress:
            return
        done = self.stats.executed + self.stats.cache_hits
        message = (
            f"[sweep] {done}/{self.stats.cells_total} cells, "
            f"{self.stats.cache_hits} cache hits, last {seconds:.2f}s ({label})"
        )
        if getattr(self.stream, "isatty", lambda: False)():
            self.stream.write(f"\r\x1b[2K{message}")
            self._line_open = True
        else:
            self.stream.write(message + "\n")
        self.stream.flush()

    def _finish_line(self) -> None:
        if self._line_open:
            self.stream.write("\n")
            self.stream.flush()
            self._line_open = False

    def summary(self) -> str:
        """One-line cumulative report (parsed by scripts/sweep_smoke.py)."""
        s = self.stats
        return (
            f"{s.cells_total} cells: {s.cache_hits} cache hits, "
            f"{s.executed} executed, {s.wall_seconds:.1f}s wall (jobs={self.jobs})"
        )
