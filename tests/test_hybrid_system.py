"""Facade-level tests for HybridSystem (API contracts and accessors)."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core import HybridConfig, HybridSystem
from repro.experiments.common import Scale, run_cell

from .conftest import build_system


class TestConstructionValidation:
    def test_zero_peers_rejected(self):
        with pytest.raises(ValueError):
            HybridSystem(HybridConfig(), n_peers=0)

    def test_invalid_config_rejected_early(self):
        with pytest.raises(ValueError):
            HybridSystem(HybridConfig(p_s=2.0), n_peers=10)

    def test_interests_length_checked(self):
        system = HybridSystem(HybridConfig(), n_peers=5)
        with pytest.raises(ValueError, match="one entry per peer"):
            system.build(interests=["music"])

    def test_peers_get_distinct_hosts(self, small_system):
        hosts = [p.host for p in small_system.alive_peers()]
        assert len(hosts) == len(set(hosts))
        assert small_system.server_host not in hosts


class TestAccessors:
    def test_snetwork_sizes_account_everyone(self, small_system):
        sizes = small_system.snetwork_sizes()
        assert sum(sizes.values()) == len(small_system.s_peers())
        assert set(sizes) == {p.address for p in small_system.t_peers()}

    def test_data_distribution_matches_totals(self, small_system):
        peers = [p.address for p in small_system.alive_peers()]
        small_system.populate([(peers[i % len(peers)], f"k{i}", i) for i in range(50)])
        dist = small_system.data_distribution()
        assert dist.sum() == small_system.total_items() == 50
        assert len(dist) == len(small_system.alive_peers())

    def test_ring_order_empty_without_tpeers(self):
        system = HybridSystem(HybridConfig(), n_peers=3)
        assert system.ring_order() == []  # not built yet

    def test_join_latencies_shapes(self, small_system):
        lat = small_system.join_latencies()
        assert set(lat) == {"t", "s"}
        assert isinstance(lat["t"], np.ndarray)


class TestChurnDriving:
    def test_crash_fraction_counts(self, small_system):
        alive = [p.address for p in small_system.alive_peers()]
        crashed = small_system.crash_random_fraction(0.25)
        assert len(crashed) == round(0.25 * len(alive)) > 0
        assert len(set(crashed)) == len(crashed)
        assert set(crashed) <= set(alive)
        assert not any(small_system.peers[a].alive for a in crashed)

    def test_crash_fraction_validation(self, small_system):
        with pytest.raises(ValueError):
            small_system.crash_random_fraction(1.5)

    def test_crash_fraction_zero_is_noop(self, small_system):
        assert small_system.crash_random_fraction(0.0) == []

    def test_crash_peers_skips_dead_and_unknown(self, small_system):
        victim = small_system.s_peers()[0].address
        assert small_system.crash_peers([victim, victim, 99999]) == 1

    def test_leave_peers_waits_for_completion(self):
        system = build_system(p_s=0.5, n_peers=20)
        victims = [system.t_peers()[0].address, system.s_peers()[0].address]
        system.leave_peers(victims, wait=True)
        for addr in victims:
            assert not system.peers[addr].alive

    def test_settle_advances_clock(self, small_system):
        t0 = small_system.engine.now
        small_system.settle(1234.0)
        assert small_system.engine.now == pytest.approx(t0 + 1234.0)


class TestPopulate:
    def test_populate_counts(self, small_system):
        peers = [p.address for p in small_system.alive_peers()]
        n = small_system.populate([(peers[0], f"x{i}", i) for i in range(7)])
        assert n == 7
        assert small_system.total_items() == 7

    def test_populate_without_drain(self, small_system):
        peers = [p.address for p in small_system.alive_peers()]
        small_system.populate([(peers[0], "undrained", 1)], drain=False)
        # The engine has not run: remote items may still be in flight,
        # but draining afterwards lands everything.
        small_system.engine.run()
        assert small_system.total_items() == 1

    def test_store_from_unknown_origin_raises(self, small_system):
        with pytest.raises(KeyError):
            small_system.store_from(99999, "k", 1)


class TestStressTracking:
    def test_stress_disabled_by_default(self, small_system):
        assert small_system.stress is None

    def test_stress_reset_isolates_phases(self):
        system = HybridSystem(HybridConfig(p_s=0.5), n_peers=20, seed=3, track_stress=True)
        system.build()
        build_tx = system.stress.summary().total_transmissions
        assert build_tx > 0
        system.stress.reset()
        assert system.stress.summary().total_transmissions == 0


class TestClose:
    def test_close_frees_the_graph_by_reference_count(self):
        # Heartbeats on: armed timers and a never-empty event heap are
        # the cycles a finished cell used to leave to the gen-2 collector.
        system = build_system(n_peers=30, heartbeats_enabled=True)
        system.populate([(p.address, f"k{p.address}", 1) for p in system.alive_peers()])
        system.run_lookups([(a, f"k{a}") for a in list(system.peers)[:10]])
        assert system.engine.pending_count > 0
        handle = system.engine.call_later(10.0, lambda: None)
        refs = [
            weakref.ref(obj)
            for obj in (system, system.transport, system.engine, system.trace,
                        system.server, *system.peers.values())
        ]
        gc.collect()
        gc.disable()
        try:
            system.close()
            assert handle.cancelled and system.engine.pending_count == 0
            assert not system.trace.wanted and len(system.transport) == 0
            system.close()  # harmless twice
            del system, handle
            assert [r() for r in refs if r() is not None] == []

            # run_cell closes what nobody asked to keep ...
            before = len(gc.get_objects())
            for seed in range(3):
                run_cell(HybridConfig(p_s=0.5), Scale(n_peers=60, n_keys=30, n_lookups=20, seed=seed))
            assert len(gc.get_objects()) - before < 1_000
            # ... and leaves a requested system usable.
            out = {}
            run_cell(HybridConfig(p_s=0.5), Scale(n_peers=60, n_keys=30, n_lookups=20), system_out=out)
            assert len(out["system"].alive_peers()) == 60
        finally:
            gc.enable()
