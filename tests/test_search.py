"""Tests for random-walk lookups and partial/keyword search."""

from __future__ import annotations

import pytest

from repro.core import HybridConfig, HybridSystem

from .conftest import build_system


def populate(system, n, prefix="k"):
    peers = [p.address for p in system.alive_peers()]
    system.populate([(peers[i % len(peers)], f"{prefix}{i}", i) for i in range(n)])
    return peers


class TestRandomWalks:
    def test_walks_find_items_with_ample_budget(self):
        system = build_system(
            p_s=0.8, n_peers=40, seed=3,
            search_mode="walk", walkers=6, walk_ttl=24,
            lookup_timeout=20_000.0,
        )
        peers = populate(system, 100)
        system.run_lookups([(peers[(i * 7) % len(peers)], f"k{i}") for i in range(100)])
        assert system.query_stats().failure_ratio < 0.05

    def test_starved_walks_fail(self):
        system = build_system(
            p_s=0.9, n_peers=50, seed=3, delta=2,
            search_mode="walk", walkers=1, walk_ttl=2,
            lookup_timeout=5_000.0,
        )
        peers = populate(system, 150)
        system.run_lookups([(peers[(i * 7) % len(peers)], f"k{i}") for i in range(150)])
        assert system.query_stats().failure_ratio > 0.0

    def test_walks_bound_the_per_query_budget(self):
        """A flood pays for the whole reachable ball; a walk pays at
        most walkers x walk_ttl.  With the budget below the s-network
        size, walks must contact fewer peers (their trade: a higher
        failure ratio)."""

        def run(mode: str):
            system = build_system(
                p_s=0.9, n_peers=50, seed=4, ttl=8,
                search_mode=mode, walkers=1, walk_ttl=5,
                lookup_timeout=10_000.0,
            )
            peers = populate(system, 100)
            system.run_lookups(
                [(peers[(i * 7) % len(peers)], f"k{i}") for i in range(100)]
            )
            return system.query_stats()

        walk, flood = run("walk"), run("flood")
        assert walk.connum < flood.connum
        assert walk.failure_ratio >= flood.failure_ratio

    def test_more_walkers_higher_success(self):
        def failure(walkers: int) -> float:
            system = build_system(
                p_s=0.9, n_peers=50, seed=5, delta=2,
                search_mode="walk", walkers=walkers, walk_ttl=6,
                lookup_timeout=5_000.0,
            )
            peers = populate(system, 120)
            system.run_lookups(
                [(peers[(i * 11) % len(peers)], f"k{i}") for i in range(120)]
            )
            return system.query_stats().failure_ratio

        assert failure(8) <= failure(1)

    def test_richer_walks_buy_success_back(self):
        """Scale.quick() size: 4 walkers x 12 hops vs 1 walker x 5."""

        def failure(walkers: int, walk_ttl: int) -> float:
            system = build_system(
                p_s=0.9, n_peers=120, seed=16, ttl=8,
                search_mode="walk", walkers=walkers, walk_ttl=walk_ttl,
                lookup_timeout=10_000.0,
            )
            peers = populate(system, 400)
            system.run_lookups(
                [(peers[(i * 7) % len(peers)], f"k{i}") for i in range(400)]
            )
            return system.query_stats().failure_ratio

        assert failure(4, 12) <= failure(1, 5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HybridConfig(search_mode="teleport").validate()
        with pytest.raises(ValueError):
            HybridConfig(walkers=0).validate()
        with pytest.raises(ValueError):
            HybridConfig(walk_ttl=0).validate()


class TestPartialSearch:
    def make_interest_system(self, n_items=40, seed=2):
        system = build_system(
            p_s=0.8, n_peers=60, ttl=10, seed=seed, interest_band_bits=14
        )
        peers = [p.address for p in system.alive_peers()]
        system.populate(
            [(peers[i % len(peers)], f"music:item-{i}", i) for i in range(n_items)]
        )
        anchor_pid, anchor = system.server.ring.owner_of(
            system.idspace.hash_key("music")
        )
        members = [p for p in system.s_peers() if p.t_peer == anchor]
        origin = members[0] if members else system.peers[anchor]
        return system, origin

    def test_prefix_search_finds_all_matches(self):
        system, origin = self.make_interest_system()
        qid = origin.search("music:item-1", timeout=10_000.0)
        system.engine.run()
        assert origin.search_done(qid)
        results = origin.search_results(qid)
        expected = {f"music:item-{i}" for i in [1] + list(range(10, 20))}
        assert set(results) == expected
        assert system.queries.get(qid).status == "success"

    def test_search_with_no_matches_fails(self):
        system, origin = self.make_interest_system()
        qid = origin.search("video:", timeout=5_000.0)
        system.engine.run()
        assert origin.search_done(qid)
        assert origin.search_results(qid) == {}
        assert system.queries.get(qid).status == "failed"

    def test_search_aggregates_multiple_holders(self):
        system, origin = self.make_interest_system()
        qid = origin.search("music:", timeout=10_000.0)
        system.engine.run()
        state = origin.pending_searches[qid]
        assert len(state.holders) > 1  # matches came from several peers
        assert len(origin.search_results(qid)) == 40

    def test_empty_prefix_rejected(self):
        system, origin = self.make_interest_system(n_items=5)
        with pytest.raises(ValueError):
            origin.search("")

    def test_results_none_while_running(self):
        system, origin = self.make_interest_system(n_items=5)
        qid = origin.search("music:", timeout=60_000.0)
        # Before the engine runs the timer out, results are unavailable.
        assert origin.search_results(qid) is None
        system.engine.run()
        assert origin.search_results(qid) is not None
