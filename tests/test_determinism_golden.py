"""Golden determinism test for the simulation substrate.

The perf rewrite (tuple-heap engine, batched flood delivery, memoized
transport delays) is only admissible because it is *bit-identical* to
the straightforward implementation: same seed, same event order, same
floating-point arithmetic, same metrics.  This test pins the full
metric bundle of a Fig.-3-style cell at ``Scale.quick()`` to exact
values captured from the pre-rewrite tree -- every comparison is ``==``
on floats on purpose.  If an "optimisation" moves any of these by one
ulp, it reordered events or changed arithmetic and must be fixed, not
re-goldened.

The same bundle is pinned at ``Scale.medium()`` (seven times the
events), and the perf ledger's ``sim_shard2`` workload re-checks the
quick goldens on every benchmark run.  A third golden covers the
heartbeat + crash path, which the other two never enter.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.hybrid import HybridConfig
from repro.experiments.common import Scale, run_cell

# Captured at commit 4dba637 (pre-rewrite engine), seed 0.
GOLDEN = {
    "p_s": 0.3,
    "failure_ratio": 0.0,
    "mean_latency": 3121.8109594982875,
    "median_latency": 3124.0968402879807,
    "connum": 17056,
    "mean_contacts": 42.64,
    "successes": 400,
    "failures": 0,
    "n_t_peers": 84,
    "n_s_peers": 36,
}
GOLDEN_EVENTS_EXECUTED = 37_040

# Scale.medium(), seed 0: mean latency, connum and event count are the
# values the substrate bench asserted on every repeat from PR 1 until
# PR 16 removed it; the rest were re-read on the same commit.
GOLDEN_MEDIUM = {
    "p_s": 0.3,
    "failure_ratio": 0.0,
    "mean_latency": 10661.615417341618,
    "median_latency": 10615.541561046848,
    "connum": 123750,
    "mean_contacts": 103.125,
    "successes": 1200,
    "failures": 0,
    "n_t_peers": 210,
    "n_s_peers": 90,
}
GOLDEN_MEDIUM_EVENTS_EXECUTED = 261_776

# One quick Fig. 5b cell, seed 0: heartbeats on and a fifth of the peers
# crashed, so detection, elections, rejoins and ring repair all run
# before the lookups.  The event count is deliberately not pinned: how
# many timer events liveness takes is an implementation choice, what it
# detects and when is not.
HEARTBEAT_CONFIG = HybridConfig(
    p_s=0.6, heartbeats_enabled=True, lookup_timeout=30_000.0
)
HEARTBEAT_CRASH_FRACTION = 0.2
GOLDEN_HEARTBEAT = {
    "p_s": 0.6,
    "failure_ratio": 0.2,
    "mean_latency": 1792.9873298848138,
    "median_latency": 1778.8691262811699,
    "connum": 9608,
    "mean_contacts": 24.02,
    "successes": 320,
    "failures": 80,
    "n_t_peers": 47,
    "n_s_peers": 49,
}
GOLDEN_HEARTBEAT_SENT = 48_780
GOLDEN_HEARTBEAT_DROPPED = 124


@pytest.fixture(scope="module")
def quick_cell():
    out = {}
    result = run_cell(HybridConfig(p_s=0.3), Scale.quick(), system_out=out)
    return result, out["system"]


class TestGoldenQuickCell:
    def test_metrics_bit_identical(self, quick_cell):
        result, _system = quick_cell
        for field, expected in GOLDEN.items():
            assert getattr(result, field) == expected, field

    def test_event_count_exact(self, quick_cell):
        _result, system = quick_cell
        assert system.engine.events_executed == GOLDEN_EVENTS_EXECUTED
        # Every executed event in this workload is a message delivery.
        assert system.transport.messages_sent == GOLDEN_EVENTS_EXECUTED
        assert system.transport.messages_dropped == 0

    def test_rerun_reproduces_every_field(self, quick_cell):
        first, _system = quick_cell
        second = run_cell(HybridConfig(p_s=0.3), Scale.quick())
        assert dataclasses.asdict(first) == dataclasses.asdict(second)


class TestGoldenMediumCell:
    def test_metrics_and_event_count_bit_identical(self):
        out = {}
        result = run_cell(HybridConfig(p_s=0.3), Scale.medium(), system_out=out)
        system = out["system"]
        assert dataclasses.asdict(result) == GOLDEN_MEDIUM
        assert system.engine.events_executed == GOLDEN_MEDIUM_EVENTS_EXECUTED
        assert system.transport.messages_sent == GOLDEN_MEDIUM_EVENTS_EXECUTED
        assert system.transport.messages_dropped == 0


class TestGoldenHeartbeatCell:
    def test_metrics_and_messages_bit_identical(self):
        out = {}
        result = run_cell(
            HEARTBEAT_CONFIG, Scale.quick(),
            crash_fraction=HEARTBEAT_CRASH_FRACTION, system_out=out,
        )
        system = out["system"]
        assert dataclasses.asdict(result) == GOLDEN_HEARTBEAT
        assert system.transport.messages_sent == GOLDEN_HEARTBEAT_SENT
        assert system.transport.messages_dropped == GOLDEN_HEARTBEAT_DROPPED
