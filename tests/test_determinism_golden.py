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
heartbeat + crash path, which the other two never enter.  One more
quick cell per optional feature, and a digest of a swarm flash crowd,
pin every feature path the default cells skip.
"""

from __future__ import annotations

import dataclasses
import hashlib

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


# One quick cell per feature, seed 0, p_s 0.6: every feature path
# (bypass, cache, walks, tracker, mesh, direct placement, replication,
# and a combination) pinned at the result bundle plus the transport's
# sent/dropped counts.  The two crash cells also run heartbeats.
FEATURE_CELLS = {
    "bypass": (
        HybridConfig(p_s=0.6, bypass_links=True), 0.0,
        {"mean_latency": 1760.1483886343904, "median_latency": 1771.930932769632,
         "connum": 9411, "mean_contacts": 23.5275},
        21_519, 0,
    ),
    "cache": (
        HybridConfig(p_s=0.6, cache_enabled=True), 0.0,
        {"mean_latency": 1640.5600205046119, "median_latency": 1543.295306565764,
         "connum": 8693, "mean_contacts": 21.7325},
        20_631, 0,
    ),
    "walk": (
        HybridConfig(p_s=0.6, search_mode="walk"), 0.0,
        {"mean_latency": 1831.756918474615, "median_latency": 1814.0305975327792,
         "connum": 10864, "mean_contacts": 27.16},
        23_211, 0,
    ),
    "bittorrent": (
        HybridConfig(p_s=0.6, snetwork_style="bittorrent"), 0.0,
        {"mean_latency": 1828.8169776779496, "median_latency": 1814.0305975327792,
         "connum": 9695, "mean_contacts": 24.2375},
        21_624, 0,
    ),
    "mesh": (
        HybridConfig(p_s=0.6, mesh_extra_links=2), 0.0,
        {"mean_latency": 1828.8169776779496, "median_latency": 1814.0305975327792,
         "connum": 9834, "mean_contacts": 24.585},
        21_632, 0,
    ),
    "direct": (
        HybridConfig(p_s=0.6, placement="direct"), 0.0,
        {"mean_latency": 1807.3127238377524, "median_latency": 1791.7894496239533,
         "connum": 9493, "mean_contacts": 23.7325},
        20_996, 0,
    ),
    "replication": (
        HybridConfig(
            p_s=0.6, replication_factor=3, write_quorum=2,
            replica_sync_period=2_000.0, heartbeats_enabled=True,
            lookup_timeout=30_000.0,
        ), 0.2,
        {"mean_latency": 1748.963291141938, "median_latency": 1693.57199897206,
         "connum": 9343, "mean_contacts": 23.3575,
         "n_t_peers": 47, "n_s_peers": 49},
        44_439, 153,
    ),
    "combined": (
        HybridConfig(
            p_s=0.6, bypass_links=True, cache_enabled=True,
            replication_factor=2, heartbeats_enabled=True,
            lookup_timeout=30_000.0,
        ), 0.2,
        {"failure_ratio": 0.0025, "mean_latency": 1812.2525836147315,
         "median_latency": 1501.1616946511785, "connum": 7902,
         "mean_contacts": 19.755, "successes": 399, "failures": 1,
         "n_t_peers": 47, "n_s_peers": 49},
        48_245, 129,
    ),
}
# Shared by every feature cell unless the cell's own dict overrides it.
FEATURE_DEFAULTS = {
    "p_s": 0.6, "failure_ratio": 0.0, "successes": 400, "failures": 0,
    "n_t_peers": 48, "n_s_peers": 72,
}


@pytest.mark.parametrize("name", sorted(FEATURE_CELLS))
def test_feature_cell_bit_identical(name):
    config, crash, fields, sent, dropped = FEATURE_CELLS[name]
    out = {}
    result = run_cell(config, Scale.quick(), crash_fraction=crash, system_out=out)
    system = out["system"]
    assert dataclasses.asdict(result) == {**FEATURE_DEFAULTS, **fields}
    assert system.transport.messages_sent == sent
    assert system.transport.messages_dropped == dropped


# sha256 of the repr of test_swarm.test_sim_crowd_is_deterministic's
# ``swarm.piece`` event list: the swarm path, pinned across commits.
# Re-pinned (was dd388102...3b5b7acb) when routing moved from one
# Dijkstra over the whole graph to the transit-stub decomposition: some
# latencies differ by an ulp in summation order, which moves the
# piece-event times of this cell and of no other golden.
GOLDEN_SWARM_PIECE_DIGEST = (
    "132b55e0435bba5596d826fcf27b2fad5c9cd48e5c5b7f86cbac5d02598bedd4"
)


def test_swarm_crowd_digest():
    from repro.core.hybrid import HybridSystem

    config = HybridConfig(
        p_s=0.7, snetwork_style="bittorrent", swarm_piece_size=1_000,
        swarm_inflight=4, swarm_request_timeout=250.0,
    )
    system = HybridSystem(config, n_peers=14, seed=9)
    system.build()
    s_peers = sorted(system.s_peers(), key=lambda p: p.address)
    publisher, fetchers = s_peers[0], s_peers[1:4]
    events: list = []
    system.trace.subscribe(
        "swarm.piece",
        lambda rec: events.append((rec.time, tuple(sorted(rec.payload.items())))),
    )
    data = bytes(i % 17 for i in range(9_500))
    manifest = publisher.swarm_publish("det", data)
    system.settle(1_000.0)
    done: list = []
    for peer in fetchers:
        peer.swarm_fetch(manifest, lambda d, info: done.append(d == data))
    system.engine.run_while(lambda: len(done) < len(fetchers), 5_000_000)
    assert done == [True, True, True]
    digest = hashlib.sha256(repr(events).encode()).hexdigest()
    assert digest == GOLDEN_SWARM_PIECE_DIGEST
