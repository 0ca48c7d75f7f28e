#!/usr/bin/env python3
"""Run every reproduction experiment and save the tables.

Usage:  python scripts/run_experiments.py [quick|medium|paper] [outdir]
                                          [--jobs N] [--no-cache]

``medium`` (default) takes minutes on a laptop; ``paper`` matches the
paper's 1,000-peer scale and takes correspondingly longer.  Outputs are
written to <outdir>/<experiment>.txt and echoed to stdout; EXPERIMENTS.md
quotes these files.

Cells fan out over ``--jobs`` worker processes (default: ``REPRO_JOBS``
or all cores) and are memoized in the content-addressed cell cache
(``~/.cache/repro-cells`` or ``$REPRO_CELL_CACHE``; ``--no-cache``
recomputes).  One executor spans the whole bundle, so cells shared
between experiments (Fig. 5a and Table 2 overlap on 18) run once.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
import time

from repro.exec import CellCache, CellExecutor
from repro.shard import SHARDS_STRICT_ENV, resolve_shards
from repro.experiments import (
    Scale,
    fig3_analysis,
    fig4_distribution,
    fig5_failure,
    fig6_latency,
    table2_connum,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "scale", nargs="?", default="medium", choices=["quick", "medium", "paper"]
    )
    parser.add_argument("outdir", nargs="?", default="results", type=pathlib.Path)
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (default: REPRO_JOBS or all cores)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="recompute every cell instead of consulting the cell cache",
    )
    parser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="worker shards per cell (default: REPRO_SHARDS or 1); "
        "bit-identical to unsharded execution",
    )
    parser.add_argument(
        "--shards-strict", action="store_true", default=None,
        help="fail instead of silently running a cell single-process "
        "when its config is not shardable (also: REPRO_SHARDS_STRICT=1)",
    )
    args = parser.parse_args()

    args.outdir.mkdir(parents=True, exist_ok=True)
    scale = {"quick": Scale.quick, "medium": Scale.medium, "paper": Scale.paper}[
        args.scale
    ]()
    if args.shards_strict:
        os.environ[SHARDS_STRICT_ENV] = "1"
    executor = CellExecutor(
        jobs=args.jobs,
        cache=None if args.no_cache else CellCache(),
        progress=sys.stderr.isatty(),
        shards=resolve_shards(args.shards),
    )
    jobs = [
        ("fig3", lambda: fig3_analysis.main(points=11)),
        ("fig4", lambda: fig4_distribution.main(scale, executor=executor)),
        ("fig5", lambda: fig5_failure.main(scale, executor=executor)),
        ("fig6", lambda: fig6_latency.main(scale, executor=executor)),
        ("table2", lambda: table2_connum.main(scale, executor=executor)),
    ]
    for name, job in jobs:
        t0 = time.time()
        text = job()
        elapsed = time.time() - t0
        stamped = f"{text}\n\n[scale={args.scale}, {elapsed:.1f}s]"
        (args.outdir / f"{name}.txt").write_text(stamped + "\n")
        print(stamped)
        print("=" * 70, flush=True)
    print(f"[sweep] bundle: {executor.summary()}", file=sys.stderr)


if __name__ == "__main__":
    main()
