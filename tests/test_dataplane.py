"""Data-plane tests: store/lookup routing, both placement schemes,
flood semantics, refloods, connum accounting, BitTorrent mode
(Sections 3.4, 5.5)."""

from __future__ import annotations

import pytest

from repro.core import HybridConfig, HybridSystem

from .conftest import build_system


def populate(system, n_items, prefix="k"):
    peers = [p.address for p in system.alive_peers()]
    items = [(peers[i % len(peers)], f"{prefix}{i}", i) for i in range(n_items)]
    system.populate(items)
    return items


class TestStoreRouting:
    def test_items_land_in_owning_segment(self):
        system = build_system(p_s=0.6, n_peers=30)
        populate(system, 120)
        peers = {p.address: p for p in system.alive_peers()}
        for p in system.alive_peers():
            anchor = p if p.role == "t" else peers[p.t_peer]
            for item in p.database:
                assert anchor.owns(item.d_id), (
                    f"{item.key} stored at {p.address} outside segment of "
                    f"anchor {anchor.address}"
                )

    def test_no_item_lost_or_duplicated(self):
        system = build_system(p_s=0.6, n_peers=30)
        populate(system, 150)
        keys = []
        for p in system.alive_peers():
            keys.extend(i.key for i in p.database)
        assert len(keys) == 150
        assert len(set(keys)) == 150

    def test_direct_placement_concentrates_on_tpeers(self):
        system = build_system(p_s=0.8, n_peers=40, placement="direct", seed=8)
        populate(system, 200)
        t_items = sum(len(p.database) for p in system.t_peers())
        s_items = sum(len(p.database) for p in system.s_peers())
        # Remote inserts all end at t-peers; only locally-generated
        # items can sit on s-peers.
        assert t_items > s_items

    def test_spread_placement_reaches_speers(self):
        system = build_system(p_s=0.8, n_peers=40, placement="spread", seed=8)
        populate(system, 200)
        s_with_data = sum(1 for p in system.s_peers() if len(p.database) > 0)
        assert s_with_data > len(system.s_peers()) / 4

    def test_spread_flatter_than_direct(self):
        from repro.metrics import gini

        def build_and_gini(placement):
            system = build_system(p_s=0.8, n_peers=40, placement=placement, seed=8)
            populate(system, 300)
            return gini(system.data_distribution())

        assert build_and_gini("spread") < build_and_gini("direct")


class TestLookup:
    def test_all_lookups_succeed_with_ample_ttl(self):
        system = build_system(p_s=0.7, n_peers=30, ttl=8)
        populate(system, 90)
        alive = [p.address for p in system.alive_peers()]
        system.run_lookups([(alive[(i * 11) % len(alive)], f"k{i}") for i in range(90)])
        stats = system.query_stats()
        assert stats.failure_ratio == 0.0
        assert stats.successes == 90

    def test_lookup_for_absent_key_fails(self):
        system = build_system(p_s=0.5, n_peers=20)
        populate(system, 10)
        origin = system.alive_peers()[0].address
        system.run_lookups([(origin, "no-such-key")])
        stats = system.query_stats()
        assert stats.failures == 1

    def test_small_ttl_misses_deep_items(self):
        """With ttl=1 and deep trees, some spread items are unreachable."""
        system = build_system(p_s=0.9, n_peers=40, ttl=1, delta=2, seed=3)
        populate(system, 200)
        alive = [p.address for p in system.alive_peers()]
        system.run_lookups(
            [(alive[(i * 7) % len(alive)], f"k{i}") for i in range(200)]
        )
        assert system.query_stats().failure_ratio > 0.0

    def test_reflood_recovers_small_ttl_failures(self):
        base = dict(p_s=0.9, n_peers=40, delta=2, seed=3)
        no_retry = build_system(ttl=1, **base)
        populate(no_retry, 150)
        alive = [p.address for p in no_retry.alive_peers()]
        pairs = [(alive[(i * 7) % len(alive)], f"k{i}") for i in range(150)]
        no_retry.run_lookups(pairs)
        base_fail = no_retry.query_stats().failure_ratio

        retry = build_system(
            ttl=1, max_refloods=3, reflood_ttl_step=2,
            lookup_timeout=5_000.0, **base,
        )
        populate(retry, 150)
        alive = [p.address for p in retry.alive_peers()]
        pairs = [(alive[(i * 7) % len(alive)], f"k{i}") for i in range(150)]
        retry.run_lookups(pairs)
        retry_stats = retry.query_stats()
        assert retry_stats.failure_ratio < base_fail
        refloods = sum(r.refloods for r in retry.queries.records())
        assert refloods > 0

    def test_local_lookup_cheaper_than_remote(self):
        system = build_system(p_s=0.7, n_peers=30, ttl=6)
        populate(system, 120)
        alive = [p.address for p in system.alive_peers()]
        system.run_lookups([(alive[(i * 5) % len(alive)], f"k{i}") for i in range(120)])
        recs = system.queries.records()
        local = [r.latency for r in recs if r.local and r.status == "success"]
        remote = [r.latency for r in recs if not r.local and r.status == "success"]
        if local and remote:
            assert sum(local) / len(local) < sum(remote) / len(remote)

    # Cases: a small system, then the ablation at Scale.quick() size.
    def test_tree_flood_contacts_each_peer_once(self):
        """The tree guarantees zero duplicate deliveries (Section 3.2.2)."""
        for n_peers, seed, n in ((40, 7, 100), (120, 31, 400)):
            system = build_system(p_s=0.8, n_peers=n_peers, seed=seed, ttl=8)
            populate(system, n)
            alive = [p.address for p in system.alive_peers()]
            system.run_lookups(
                [(alive[(i * 3) % len(alive)], f"k{i}") for i in range(n)]
            )
            assert system.query_stats().duplicate_contacts == 0

    def test_mesh_ablation_creates_duplicates(self):
        for n_peers, seed, n in ((40, 5, 100), (120, 31, 400)):
            system = build_system(
                p_s=0.8, n_peers=n_peers, ttl=8, mesh_extra_links=2, seed=seed
            )
            populate(system, n)
            alive = [p.address for p in system.alive_peers()]
            system.run_lookups(
                [(alive[(i * 3) % len(alive)], f"k{i}") for i in range(n)]
            )
            assert system.query_stats().duplicate_contacts > 0

    def test_connum_grows_with_structured_share(self):
        def connum_at(p_s):
            system = build_system(p_s=p_s, n_peers=40, seed=4)
            populate(system, 80)
            alive = [p.address for p in system.alive_peers()]
            system.run_lookups(
                [(alive[(i * 7) % len(alive)], f"k{i}") for i in range(80)]
            )
            return system.query_stats().connum

        assert connum_at(0.0) > connum_at(0.8)

    def test_finger_routing_reduces_contacts(self):
        def contacts(routing):
            system = build_system(p_s=0.2, n_peers=40, ring_routing=routing, seed=4)
            populate(system, 60)
            alive = [p.address for p in system.alive_peers()]
            system.run_lookups(
                [(alive[(i * 7) % len(alive)], f"k{i}") for i in range(60)]
            )
            stats = system.query_stats()
            assert stats.failure_ratio == 0.0
            return stats.connum

        assert contacts("finger") < contacts("linear")


class TestBitTorrentMode:
    def test_bt_lookups_succeed_without_flooding(self):
        def connum(n_peers, seed, n, **kw):
            system = build_system(p_s=0.8, n_peers=n_peers, seed=seed, **kw)
            populate(system, n)
            alive = [p.address for p in system.alive_peers()]
            system.run_lookups(
                [(alive[(i * 11) % len(alive)], f"k{i}") for i in range(n)]
            )
            stats = system.query_stats()
            if kw.get("snetwork_style") == "bittorrent":
                assert stats.failure_ratio == 0.0
            return stats.connum

        # A small system, then the Section 5.5 ablation at Scale.quick().
        for n_peers, seed, n, ttl in ((30, 7, 90, 4), (120, 33, 400, 6)):
            bt = connum(n_peers, seed, n, ttl=ttl, snetwork_style="bittorrent")
            # Tracker-based resolution contacts far fewer peers than floods.
            assert bt < connum(n_peers, seed, n, ttl=ttl)

    def test_bt_tracker_index_covers_snetwork_items(self):
        system = build_system(p_s=0.8, n_peers=30, snetwork_style="bittorrent")
        populate(system, 90)
        peers = {p.address: p for p in system.alive_peers()}
        for t in system.t_peers():
            for key, holder in t.bt_index.items():
                assert key in peers[holder].database

    def test_bt_negative_reply_fails_fast(self):
        system = build_system(p_s=0.8, n_peers=20, snetwork_style="bittorrent")
        origin = system.s_peers()[0].address
        start = system.engine.now
        system.run_lookups([(origin, "missing:key")])
        stats = system.query_stats()
        assert stats.failures == 1
        # Resolved well before the lookup timeout would have fired.
        assert system.engine.now - start < system.config.lookup_timeout
