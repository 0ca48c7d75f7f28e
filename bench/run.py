#!/usr/bin/env python3
"""The repo's benchmark: six workloads, seven end-to-end metrics, layer attribution.

    python3 bench/run.py                                   # every workload, tables
    python3 bench/run.py --workload sim_paper --seed 3     # one workload
    python3 bench/run.py --workload live_read --trace      # per-layer numbers
    python3 bench/run.py --check-repeat                    # two sets must agree

The last line of standard output is one JSON object -- ``correct``,
``attempted``, ``failed``, ``metrics`` -- holding every end-to-end
metric (``--trace 0``) or every per-layer metric (``--trace 1``) of
``BENCHMARK.json``, which is the single list of names, units and
bounds.  The exit code is non-zero when a correctness gate fails.

Each repetition runs in a fresh child process (``workloads.py``); this
file only starts them, takes medians, checks the gates and prints.
See README.md in this directory for what every name means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
from statistics import median
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[0] = str(ROOT)  # was bench/: import as `bench.*`, keep trace.py off the stdlib's name

from bench.workloads import OUT, WORKLOADS, now  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

# What each workload measures itself, primary first.  setup_s and
# peak_rss_mb are native everywhere.  The driver's table has one column
# per metric for every workload, so the remaining cells mirror the
# workload's primary figure converted to the metric's unit: they move
# exactly as the primary does and say nothing new.
NATIVE = {
    "sim_paper": ("cell_s",),
    "sim_bulk": ("cell_s",),
    "sim_shard2": ("cell_s",),
    "sweep_quick": ("sweep_s",),
    "live_read": ("get_p50_ms", "sat_ops_s"),
    "live_write": ("put_p50_ms", "get_p50_ms", "sat_ops_s"),
}
MIN_REPS = 3
CHILD_TIMEOUT_S = 150

# Counts that repeat bit-for-bit at a fixed seed (checked by --check-repeat).
EXACT = (
    "sim.engine.events", "core.lookup.started", "core.lookup.contacts",
    "core.lookup.duplicate_contacts", "core.lookup.succeeded", "core.lookup.failed",
    "overlay.transport.messages_sent", "shard.sync.window_rounds",
    "exec.pool.cells_total", "exec.pool.executed", "exec.cache.hits",
    "exec.cache.dedup_hits_cold",
)
# tier-1's goldens for the sim_shard2 cell at seed 0 (tests/test_determinism_golden.py).
SHARD2_GOLDEN = {"events": 37_040, "connum": 17_056, "mean_latency": 3121.8109594982875}


def spawn(workload: str, seed: int, seconds: float, trace: bool = False,
          identity: bool = False) -> Dict[str, Any]:
    """Run one repetition in a fresh interpreter; return its JSON result."""
    spec = {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "identity": identity, "t0": now()}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "workloads.py"), json.dumps(spec)],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, check=True,
        # Hash randomisation reshuffles every dict and set between processes
        # and with them the wall time; outputs do not depend on it.
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


# ----------------------------------------------------------------------
def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """All repetitions of one workload -> medians, gates, JSON-able record."""
    reps: List[Dict[str, Any]] = []
    if trace:
        # One untraced and one traced repetition; live windows halve to fit.
        reps.append(spawn(workload, seed, seconds / 2))
        reps.append(spawn(workload, seed, seconds / 2, trace=True))
    elif workload.startswith("live"):
        # One net, warmed up once: its windows are the repetitions.
        reps.append(spawn(workload, seed, seconds))
    else:
        start = now()
        while len(reps) < MIN_REPS or now() - start < seconds:
            reps.append(spawn(workload, seed, seconds))

    errors = [f"rep {i}: {e}" for i, r in enumerate(reps) for e in r["errors"]]
    digests = {r["digest"] for r in reps}
    if len(digests) > 1:
        errors.append(f"outputs differ between repetitions: {sorted(digests)}")
    if workload == "sim_shard2":
        errors += shard2_identity(seed, reps[0])

    attempted = sum(r["attempted"] for r in reps)
    # A repetition that broke a gate counts every one of its operations failed.
    failed = attempted if errors else sum(r["failed"] for r in reps)
    record = {
        "workload": workload, "seed": seed, "trace": trace,
        "correct": not errors and failed == 0, "errors": errors,
        "attempted": attempted, "failed": failed,
        "repetitions": len(reps), "digest": reps[0]["digest"],
        "exact": {k: reps[0]["layers"][k] for k in EXACT if k in reps[0]["layers"]},
        "end_to_end": end_to_end(workload, reps[:1] if trace else reps),
    }
    if trace:
        primary = NATIVE[workload][0]
        # Spans from the traced child; everything readable from public state
        # from the untraced one, so the tracer's own cost is not in it.
        layers = {**reps[1]["layers"], **reps[0]["layers"]}
        layers["bench.driver.trace.overhead_ratio"] = (
            median(reps[1]["measured"][primary]) / median(reps[0]["measured"][primary]))
        unknown = sorted(set(layers) - set(PER_LAYER))
        if unknown:
            raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
        record["per_layer"] = {name: float(layers.get(name, 0.0)) for name in PER_LAYER}
    return record


def shard2_identity(seed: int, rep: Dict[str, Any]) -> List[str]:
    """The sharded cell must equal a single-process run (own child, never timed)."""
    errors = []
    ref = spawn("sim_shard2", seed, 0.0, identity=True)
    if ref["digest"] != rep["digest"]:
        errors.append(f"sharded {rep['result']} != single-process {ref['result']}")
    if seed == 0:
        got = {"events": rep["layers"]["sim.engine.events"],
               "connum": rep["result"]["connum"],
               "mean_latency": rep["result"]["mean_latency"]}
        if got != SHARD2_GOLDEN:
            errors.append(f"seed-0 goldens: {got} != {SHARD2_GOLDEN}")
    return errors


def end_to_end(workload: str, reps: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Median across repetitions and windows of every end-to-end metric (mirrors included)."""
    out: Dict[str, Dict[str, Any]] = {}

    def put(name: str, values: List[float], samples: str, mirror_of: Optional[str] = None) -> None:
        out[name] = {"value": median(values), "unit": END_TO_END[name]["unit"],
                     "samples": samples, "mirror_of": mirror_of}

    put("setup_s", [r["setup_s"] for r in reps], f"{len(reps)} children")
    put("peak_rss_mb", [r["rss_mb"] for r in reps], f"{len(reps)} children")
    for name in NATIVE[workload]:
        values = [v for r in reps for v in r["measured"][name]]
        put(name, values, f"{len(values)} x {min(r['samples'][name] for r in reps)}")
    primary = NATIVE[workload][0]
    seconds = out[primary]["value"] / (1e3 if out[primary]["unit"] == "ms" else 1.0)
    for name, meta in END_TO_END.items():
        if name not in out:
            value = {"s": seconds, "ms": seconds * 1e3, "ops/s": 1.0 / seconds}[meta["unit"]]
            put(name, [value], out[primary]["samples"], mirror_of=primary)
    return out


# ----------------------------------------------------------------------
def host_info() -> Dict[str, Any]:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    load = os.getloadavg()[0]
    return {"git_sha": sha, "cpu_count": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "loadavg_1m": load,
            "noisy_host": load > 1.0}


def report(record: Dict[str, Any], host: Dict[str, Any]) -> None:
    """Human-readable table on stdout; full record to bench/out/."""
    w = record["workload"]
    print(f"== {w}  seed={record['seed']}  repetitions={record['repetitions']}  "
          f"ops {record['attempted']} attempted / {record['failed']} failed  "
          f"digest={record['digest']}  {'OK' if record['correct'] else 'INCORRECT'}")
    for error in record["errors"]:
        print(f"   gate: {error}")
    mirrors = []
    for name, m in record["end_to_end"].items():
        if m["mirror_of"]:
            mirrors.append(name)
            continue
        print(f"   {name:<14} {m['value']:>14.4f} {m['unit']:<6} "
              f"bound {END_TO_END[name]['bound']:.0%}  (n = {m['samples']})")
    print(f"   mirrors of {NATIVE[w][0]} (not measured here): {', '.join(mirrors)}")
    layers = record.get("per_layer", {})
    for name, value in layers.items():
        if value:
            print(f"   {name:<42} {value:>16.6g} {PER_LAYER[name]['unit']}")
    if layers:
        print(f"   ({sum(1 for v in layers.values() if not v)} per-layer metrics read 0 here: "
              f"layers this workload bypasses, or counters that stayed at zero)")
    OUT.mkdir(parents=True, exist_ok=True)
    suffix = "-trace" if record["trace"] else ""
    (OUT / f"result-{w}{suffix}.json").write_text(json.dumps({**host, **record}, indent=1))


def result_line(record: Dict[str, Any]) -> str:
    """The driver's contract: one JSON object, last on stdout."""
    if record["trace"]:
        metrics = {name: {"value": value, "unit": PER_LAYER[name]["unit"]}
                   for name, value in record["per_layer"].items()}
    else:
        metrics = {name: {"value": m["value"], "unit": m["unit"]}
                   for name, m in record["end_to_end"].items()}
    return json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def check_repeat(workloads: List[str], seed: int, seconds: float) -> int:
    """Two sets on the same code must agree within the bounds; exact counts exactly."""
    host = host_info()
    sets = []
    for n in (1, 2):
        print(f"--- set {n}")
        sets.append({w: run_workload(w, seed, seconds, trace=False) for w in workloads})
        for record in sets[-1].values():
            report(record, host)
    bad = 0
    print("--- repeatability: |second - first| / first against the metric's bound")
    for w in workloads:
        a, b = sets[0][w], sets[1][w]
        if not (a["correct"] and b["correct"]):
            bad += 1
        if (a["digest"], a["exact"]) != (b["digest"], b["exact"]):
            print(f"   {w}: exact counts differ: {a['exact']} / {b['exact']}")
            bad += 1
        for name, m in a["end_to_end"].items():
            if m["mirror_of"]:
                continue  # moves exactly as its primary
            gap = abs(b["end_to_end"][name]["value"] - m["value"]) / m["value"]
            over = gap > END_TO_END[name]["bound"]
            bad += over
            print(f"   {w:<12} {name:<14} {m['value']:>12.4f} {b['end_to_end'][name]['value']:>12.4f} "
                  f"{m['unit']:<6} gap {gap:6.1%} bound {END_TO_END[name]['bound']:.0%}"
                  f"{'  EXCEEDED' if over else ''}")
    print("check-repeat:", "FAILED" if bad else "ok")
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all six")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                        help="how long one run measures")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="1: one untraced + one traced repetition, per-layer metrics")
    parser.add_argument("--check-repeat", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    if args.check_repeat:
        return check_repeat(workloads, args.seed, args.seconds)
    host = host_info()
    status = 0
    for workload in workloads:
        record = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        report(record, host)
        print(result_line(record), flush=True)
        status |= not record["correct"]
    return status


if __name__ == "__main__":
    raise SystemExit(main())
