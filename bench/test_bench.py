"""Self-tests of the benchmark: ``python -m pytest bench -q``.

tier-1 (``testpaths = ["tests"]``) does not collect these, by design:
they test the ruler, not the program.
"""

from __future__ import annotations

import importlib
import json
import re
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench import run, workloads  # noqa: E402
from bench.trace import PHASE, TARGETS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# ----------------------------------------------------------------------
# BENCHMARK.json against the contract
# ----------------------------------------------------------------------
def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in SPEC[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
        assert m["better"] in ("higher", "lower")
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert re.fullmatch(r"[a-z]+\.[a-z_]+\.[a-z0-9_.]+", m["name"]), m["name"]


def test_setup_s_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_workloads_and_native_metrics_agree_with_the_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(run.NATIVE) == set(workloads.WORKLOADS)
    for native in run.NATIVE.values():
        assert set(native) <= set(run.END_TO_END)
    assert set(run.EXACT) <= set(run.PER_LAYER)


def test_every_workload_reports_every_end_to_end_metric():
    rep = {"setup_s": 0.5, "rss_mb": 80.0,
           "measured": {m: [2.0, 2.0] for m in run.END_TO_END},
           "samples": {m: 7 for m in run.END_TO_END}}
    for workload in workloads.WORKLOADS:
        out = run.end_to_end(workload, [rep, rep, rep])
        assert set(out) == set(run.END_TO_END)
        assert all(m["value"] > 0 for m in out.values())
        primary = run.NATIVE[workload][0]
        mirrors = {n for n, m in out.items() if m["mirror_of"]}
        assert mirrors == set(run.END_TO_END) - set(run.NATIVE[workload]) - {"setup_s", "peak_rss_mb"}
        assert all(out[n]["mirror_of"] == primary for n in mirrors)


def test_mirror_converts_units():
    rep = {"setup_s": 0.5, "rss_mb": 80.0, "measured": {"cell_s": [4.0]}, "samples": {"cell_s": 1}}
    out = run.end_to_end("sim_paper", [rep])
    assert out["get_p50_ms"]["value"] == 4000.0
    assert out["sweep_s"]["value"] == 4.0
    assert out["sat_ops_s"]["value"] == 0.25


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond():
    percentile = workloads.percentile
    assert percentile(list(range(999)), 99) is None
    assert percentile(list(range(1000)), 99) == 989
    assert percentile(list(range(199)), 95) is None
    assert percentile(list(range(200)), 95) == 189
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0  # the median always stands
    assert percentile([], 50) is None


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def test_self_time_on_nested_and_sibling_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf(cost: float) -> None:
        clock.t += cost

    leaf_a = tracer.wrap(leaf, "leaf.a")
    leaf_b = tracer.wrap(leaf, "leaf.b")

    def middle() -> None:
        clock.t += 1.0       # own work
        leaf_a(2.0)          # child
        leaf_a(3.0)          # sibling of the first
        clock.t += 0.5

    middle_w = tracer.wrap(middle, "middle", PHASE)

    def outer() -> None:
        clock.t += 4.0
        middle_w()
        leaf_b(10.0)

    tracer.wrap(outer, "outer", PHASE)()

    assert tracer.agg["leaf.a"] == [2, 5.0, 5.0]
    assert tracer.agg["leaf.b"] == [1, 10.0, 10.0]
    assert tracer.agg["middle"] == [1, 6.5, 1.5]      # 6.5 minus two leaves
    assert tracer.agg["outer"] == [1, 20.5, 4.0]      # minus middle (6.5) and leaf.b (10)
    # self times partition the root's duration
    assert sum(rec[2] for rec in tracer.agg.values()) == 20.5
    outer_span, = [s for s in tracer.spans if s["name"] == "outer"]
    middle_span, = [s for s in tracer.spans if s["name"] == "middle"]
    assert middle_span["parent"] == outer_span["id"] and outer_span["parent"] is None
    assert (middle_span["start"], middle_span["end"], middle_span["self_s"]) == (4.0, 10.5, 1.5)


def test_self_time_survives_an_exception_in_a_child():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom() -> None:
        clock.t += 1.0
        raise KeyError("x")

    boom_w = tracer.wrap(boom, "boom")

    def parent() -> None:
        clock.t += 2.0
        with pytest.raises(KeyError):
            boom_w()

    tracer.wrap(parent, "parent")()
    assert tracer.agg["boom"] == [1, 1.0, 1.0]
    assert tracer.agg["parent"] == [1, 3.0, 2.0]
    assert tracer._stack == []


@pytest.mark.parametrize("group", sorted(TARGETS))
def test_install_then_uninstall_restores_every_attribute(group):
    owners = []
    for module, cls, attr, _name, _kind in TARGETS[group]:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        owners.append((owner, attr, vars(owner).get(attr, "<inherited>"), getattr(owner, attr)))
    tracer = Tracer()
    tracer.install(group)
    try:
        assert all(getattr(o, a) is not resolved for o, a, _raw, resolved in owners)
    finally:
        tracer.uninstall()
    for owner, attr, raw, resolved in owners:
        assert vars(owner).get(attr, "<inherited>") is raw, (owner, attr)
        assert getattr(owner, attr) is resolved, (owner, attr)


def test_phases_sum_to_the_cell_on_a_quick_cell():
    from repro.core.config import HybridConfig
    from repro.experiments.common import Scale, run_cell

    tracer = Tracer()
    tracer.install("sim")
    try:
        out = {}
        t0 = time.perf_counter()
        run_cell(HybridConfig(p_s=0.3), Scale.quick(), system_out=out)
        cell_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    phases = tracer.total_s("core.hybrid.init", "core.hybrid.build", "core.hybrid.populate",
                            "core.hybrid.lookups", "core.hybrid.stats")
    assert 0.97 <= phases / cell_s <= 1.03
    counts = workloads.system_counts([out["system"]])
    layers = {**counts, **workloads.sim_span_layers(tracer, counts)}
    assert set(layers) <= set(run.PER_LAYER)
    assert layers["sim.engine.events"] == 37_040            # tier-1's golden
    assert layers["core.hybridpeer.receive_calls"] <= layers["sim.engine.events"]
    assert tracer.calls("overlay.transport.send") > 0 and tracer.agg["overlay.transport.send"][2] > 0
