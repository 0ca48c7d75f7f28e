"""Tests for the repro.replica durability subsystem.

``replication_factor == 1`` must reproduce the paper exactly (single
copies, crash losses as in Fig. 5b); ``k > 1`` mirrors every segment
onto the next ``k-1`` ring successors, reports quorum verdicts for
tracked writes, and promotes replica copies on failover.
"""

from __future__ import annotations

import pytest

from repro.core import HybridConfig, HybridSystem

from .conftest import build_system


def populate(system, n):
    peers = [p.address for p in system.alive_peers()]
    system.populate([(peers[i % len(peers)], f"k{i}", i) for i in range(n)])
    return peers


def ring_successor(system, peer):
    by_addr = {p.address: p for p in system.t_peers()}
    return by_addr[peer.successor]


class TestPlacement:
    def test_k1_is_paper_behavior(self):
        system = build_system(p_s=0.7, n_peers=30, replication_factor=1)
        populate(system, 90)
        assert system.total_items() == 90  # single copies
        assert system.total_replicas() == 0

    def test_k2_mirrors_every_segment_once(self):
        system = build_system(p_s=0.7, n_peers=30, replication_factor=2, seed=6)
        populate(system, 90)
        # Exactly one primary per item (owner t-peer) plus exactly one
        # replica copy (its ring successor).
        assert system.total_items() == 90
        assert system.total_replicas() == 90
        for owner in system.t_peers():
            suc = ring_successor(system, owner)
            for item in owner.database:
                copy = suc.replicas.get(item.key)
                assert copy is not None and copy.value == item.value

    def test_k3_uses_two_distinct_successors(self):
        system = build_system(p_s=0.7, n_peers=30, replication_factor=3, seed=6)
        populate(system, 60)
        assert system.total_items() == 60
        assert system.total_replicas() == 120
        for owner in system.t_peers():
            suc1 = ring_successor(system, owner)
            suc2 = ring_successor(system, suc1)
            assert len({owner.address, suc1.address, suc2.address}) == 3
            for item in owner.database:
                assert suc1.replicas.get(item.key) is not None
                assert suc2.replicas.get(item.key) is not None

    def test_primaries_stay_at_owner_t_peer(self):
        system = build_system(p_s=0.7, n_peers=30, replication_factor=2, seed=6)
        populate(system, 60)
        for p in system.alive_peers():
            if p.role == "s":
                assert len(p.database) == 0
            else:
                for item in p.database:
                    assert p.owns(item.d_id)

    def test_validation(self):
        with pytest.raises(ValueError):
            HybridConfig(replication_factor=0).validate()
        with pytest.raises(ValueError):
            HybridConfig(replication_factor=2, write_quorum=3).validate()
        with pytest.raises(ValueError):
            HybridConfig(write_quorum=0).validate()
        with pytest.raises(ValueError):
            HybridConfig(replica_ack_timeout=0.0).validate()


class TestQuorumWrites:
    def test_tracked_write_commits_at_quorum(self):
        system = build_system(
            p_s=0.7, n_peers=30, replication_factor=2, write_quorum=2, seed=6
        )
        origin = system.s_peers()[0]
        verdicts = []
        origin.store("qkey", 42, on_verdict=lambda ok, lat: verdicts.append((ok, lat)))
        system.engine.run()
        assert len(verdicts) == 1
        ok, latency = verdicts[0]
        assert ok is True
        assert latency >= 0.0
        # The item landed at its owner and on the owner's successor.
        owner = next(p for p in system.t_peers() if p.database.get("qkey"))
        assert ring_successor(system, owner).replicas.get("qkey") is not None

    def test_quorum_one_commits_immediately(self):
        system = build_system(
            p_s=0.7, n_peers=30, replication_factor=3, write_quorum=1, seed=6
        )
        origin = system.t_peers()[0]
        verdicts = []
        origin.store("qkey", 1, on_verdict=lambda ok, lat: verdicts.append(ok))
        system.engine.run()
        assert verdicts == [True]

    def test_unreachable_quorum_reports_failure(self):
        # A single-member ring has no successors: quorum 2 cannot exist.
        config = HybridConfig(p_s=0.0, replication_factor=2, write_quorum=2)
        system = HybridSystem(config, n_peers=1, seed=3)
        system.build()
        system.engine.run()
        only = system.t_peers()[0]
        verdicts = []
        only.store("qkey", 1, on_verdict=lambda ok, lat: verdicts.append(ok))
        system.engine.run()
        assert verdicts == [False]
        # The primary copy still exists (durability failed, write landed).
        assert only.database.get("qkey") is not None


class TestAntiEntropy:
    def test_periodic_sync_restores_lost_replica(self):
        system = build_system(
            p_s=0.7, n_peers=30, replication_factor=2,
            replica_sync_period=5_000.0, seed=6,
        )
        populate(system, 60)
        owner = next(p for p in system.t_peers() if len(p.database) > 0)
        suc = ring_successor(system, owner)
        item = next(iter(owner.database))
        assert suc.replicas.get(item.key) is not None
        suc.replicas.delete(item.key)
        system.settle(12_000.0)  # > two sync periods
        restored = suc.replicas.get(item.key)
        assert restored is not None and restored.value == item.value

    def test_sync_lag_trace_emitted(self):
        records = []
        config = HybridConfig(
            p_s=0.7, replication_factor=2, replica_sync_period=5_000.0
        )
        system = HybridSystem(config, n_peers=30, seed=6)
        system.trace.subscribe("replica.lag", records.append)
        system.build()
        system.settle(2_000.0)
        populate(system, 30)
        suc = ring_successor(system, system.t_peers()[0])
        for key in list(suc.replicas.keys()):
            suc.replicas.delete(key)
        system.settle(6_000.0)
        assert any(r.payload.get("items", 0) > 0 for r in records)


class TestCrashFailover:
    def test_promotion_pulls_segment_from_replicas(self):
        records = []
        config = HybridConfig(
            p_s=0.7, ttl=8, heartbeats_enabled=True,
            lookup_timeout=20_000.0, replication_factor=2,
        )
        system = HybridSystem(config, n_peers=40, seed=7)
        system.trace.subscribe("replica.failover", records.append)
        system.build()
        system.settle(2_000.0)
        peers = populate(system, 120)
        victim = next(
            p for p in system.t_peers() if p.children and len(p.database) > 0
        )
        lost_keys = [item.key for item in victim.database]
        system.crash_peers([victim.address])
        system.settle(40_000.0)
        assert records, "no failover event emitted"
        # Every key of the crashed segment is owned (in a primary db)
        # by some live peer again.
        recovered = {
            item.key for p in system.alive_peers() for item in p.database
        }
        assert set(lost_keys) <= recovered
        alive = [p.address for p in system.alive_peers()]
        system.run_lookups(
            [(alive[i % len(alive)], key) for i, key in enumerate(lost_keys)]
        )
        assert system.query_stats().failure_ratio == 0.0

    def _failure_after_crash(self, k: int) -> float:
        config = HybridConfig(
            p_s=0.7, ttl=8, heartbeats_enabled=True,
            lookup_timeout=20_000.0, replication_factor=k,
        )
        system = HybridSystem(config, n_peers=60, seed=7)
        system.build()
        populate(system, 180)
        system.crash_random_fraction(0.2)
        system.settle(40_000.0)
        alive = [p.address for p in system.alive_peers()]
        system.run_lookups(
            [(alive[(i * 7) % len(alive)], f"k{i}") for i in range(180)]
        )
        return system.query_stats().failure_ratio

    def test_replication_cuts_crash_losses(self):
        single = self._failure_after_crash(1)
        double = self._failure_after_crash(2)
        assert double < 0.7 * single

    def test_no_crash_no_failures(self):
        system = build_system(p_s=0.7, n_peers=30, ttl=8, replication_factor=2)
        peers = populate(system, 90)
        system.run_lookups([(peers[(i * 3) % len(peers)], f"k{i}") for i in range(90)])
        assert system.query_stats().failure_ratio == 0.0
