"""Performance instrumentation for the simulation substrate.

The reproduction's experiment sweeps are bounded by raw event-loop
throughput, so this module gives every driver a uniform way to answer
"how fast did that run, and where did the time go":

* :func:`rss_kb` / :func:`memory_info` / :class:`PhaseSampler` --
  sampled resident/proportional memory and a per-phase wall + RSS
  trace; :mod:`repro.shard` attaches them to its run diagnostics.
* :func:`maybe_profile` -- cProfile hook gated on the ``REPRO_PROFILE=1``
  environment variable; zero overhead when the variable is unset, a
  sorted hot-spot table on stderr when it is.

Speed and memory *claims* are measured from outside ``src/`` by the
perf ledger (``python3 bench/run.py``, ``BENCHMARK.json``).
"""

from __future__ import annotations

import cProfile
import os
import pstats
import sys
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

__all__ = [
    "PROFILE_ENV",
    "PROFILE_DIR_ENV",
    "maybe_profile",
    "profiling_enabled",
    "rss_kb",
    "memory_info",
    "PhaseSampler",
]

#: Set this environment variable to ``1`` to wrap :func:`maybe_profile`
#: blocks in cProfile and dump the hottest functions on exit.
PROFILE_ENV = "REPRO_PROFILE"

#: When set (alongside ``REPRO_PROFILE=1``), each profiled block also
#: dumps binary pstats to ``$REPRO_PROFILE_DIR/profile<tag>.pstats`` --
#: one file per block, so the shard workers of a sharded run each leave
#: their own ``profile-shard<N>.pstats`` instead of vanishing into a
#: parent-only profile.
PROFILE_DIR_ENV = "REPRO_PROFILE_DIR"


# ----------------------------------------------------------------------
# Memory sampling
# ----------------------------------------------------------------------
def rss_kb() -> int:
    """Current resident set size (VmRSS) in kB; 0 where unsupported.

    Sampled, not peak: ``ru_maxrss`` is useless for forked shard
    workers -- they inherit the parent's copy-on-write peak -- while a
    VmRSS sample taken after compaction reflects what the worker
    actually keeps resident.
    """
    try:
        with open("/proc/self/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def memory_info() -> Dict[str, int]:
    """Resident/proportional/private footprint of this process, in kB.

    ``pss_kb`` (proportional set size) is the honest per-process figure
    when several forked workers share copy-on-write pages with their
    parent: each shared page is charged ``1/n``-th to each mapper,
    so worker PSS values sum to the physical truth instead of counting
    the shared image once per worker the way VmRSS does.  All zeros
    where ``/proc`` is unavailable.
    """
    info = {"vm_rss_kb": rss_kb(), "pss_kb": 0, "private_kb": 0, "shared_kb": 0}
    try:
        with open("/proc/self/smaps_rollup", "rb") as fh:
            for line in fh:
                key, _, rest = line.partition(b":")
                if key == b"Pss":
                    info["pss_kb"] = int(rest.split()[0])
                elif key in (b"Private_Clean", b"Private_Dirty"):
                    info["private_kb"] += int(rest.split()[0])
                elif key in (b"Shared_Clean", b"Shared_Dirty"):
                    info["shared_kb"] += int(rest.split()[0])
    except OSError:
        pass
    return info


class PhaseSampler:
    """Per-phase wall/RSS/IPC trace of one run.

    ``mark(name)`` closes the phase that just ran: it records the wall
    seconds since the previous mark and a fresh memory sample, plus any
    caller-supplied counters (e.g. ``ipc_bytes``).  Drivers attach the
    resulting list to their diagnostics so a memory regression can be
    pinned to build/fork/lookup/merge instead of a run-wide peak.
    """

    def __init__(self) -> None:
        self._t0 = time.perf_counter()
        self.phases: list = []

    def mark(self, name: str, **extra: object) -> Dict[str, object]:
        now = time.perf_counter()
        sample: Dict[str, object] = {
            "phase": name,
            "wall_seconds": now - self._t0,
            "vm_rss_kb": rss_kb(),
        }
        sample.update(extra)
        self._t0 = now
        self.phases.append(sample)
        return sample

    def as_list(self) -> list:
        return list(self.phases)


def profiling_enabled() -> bool:
    """True when ``REPRO_PROFILE=1`` is set in the environment."""
    return os.environ.get(PROFILE_ENV, "") == "1"


@contextmanager
def maybe_profile(
    sort: str = "tottime",
    limit: int = 25,
    stream=None,
    tag: str = "",
) -> Iterator[Optional[cProfile.Profile]]:
    """cProfile a block iff ``REPRO_PROFILE=1``; otherwise a no-op.

    Yields the active :class:`cProfile.Profile` (or None when disabled)
    and prints the ``limit`` hottest functions, sorted by ``sort``, to
    ``stream`` (default stderr) on exit.  ``tag`` labels the block in
    the printed header and in the per-block pstats file written when
    ``REPRO_PROFILE_DIR`` is set -- that is how each worker process of a
    sharded run leaves its own ``profile-shard<N>.pstats`` instead of
    only the parent getting profiled.
    """
    if not profiling_enabled():
        yield None
        return
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield profiler
    finally:
        profiler.disable()
        dump_dir = os.environ.get(PROFILE_DIR_ENV, "")
        if dump_dir:
            os.makedirs(dump_dir, exist_ok=True)
            pstats.Stats(profiler).dump_stats(
                os.path.join(dump_dir, f"profile{tag}.pstats")
            )
        out = stream if stream is not None else sys.stderr
        if tag:
            print(f"--- profile {tag} ---", file=out)
        stats = pstats.Stats(profiler, stream=out)
        stats.sort_stats(sort).print_stats(limit)
