"""Data-plane tests: store/lookup routing, both placement schemes,
flood semantics, refloods, connum accounting, BitTorrent mode
(Sections 3.4, 5.5)."""

from __future__ import annotations

import pytest

from repro.core import HybridConfig, HybridSystem
from repro.experiments.common import Scale, run_cell
from repro.overlay.messages import (
    BTLookupReply, DataFound, FloodQuery, LookupRequest, WalkQuery,
)

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
            ttl=1, max_refloods=3, lookup_timeout=5_000.0, **base,
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


def count_deliveries(monkeypatch, system, *kinds):
    """Count deliveries of each message class through the dispatch table
    of ``system``'s peer class (made by its first peer)."""
    counts = {cls: 0 for cls in kinds}
    table = type(system.alive_peers()[0])._dispatch
    for cls in kinds:

        def counted(peer, msg, real=table[cls.__name__], cls=cls):
            counts[cls] += 1
            real(peer, msg)

        monkeypatch.setitem(table, cls, counted)
        monkeypatch.setitem(table, cls.__name__, counted)
    return counts


def known_holders(t_peer, key):
    """The holders of ``key`` that ``t_peer``'s swarm tracker knows."""
    return [addr for addr, _bitmap in t_peer.swarm_tracker.holders_for(key)]


def local_key(peer, prefix):
    """A key whose d_id falls in ``peer``'s own s-network."""
    return next(
        key for key in (f"{prefix}{i}" for i in range(10_000))
        if peer.owns_locally(peer.idspace.hash_key(key))
    )


class TestRetry:
    """A timed-out lookup retries along the path its first attempt took."""

    def test_bittorrent_local_retry_asks_the_tracker_again(self, monkeypatch):
        system = build_system(
            p_s=0.5, n_peers=60, snetwork_style="bittorrent", max_refloods=1
        )
        holder = system.s_peers()[0]
        tracker = system.peers[holder.t_peer]
        key = local_key(holder, "bt-retry-")
        system.populate([(holder.address, key, "v")])
        assert known_holders(tracker, key) == [holder.address]
        system.crash_peers([holder.address])
        counts = count_deliveries(monkeypatch, system, LookupRequest)
        calls = []
        qid = tracker.lookup(key, lambda *done: calls.append(done))
        system.engine.run()
        assert calls == [(False, None, -1)]
        rec = system.queries.get(qid)
        assert rec.refloods == 1 and rec.contacts == 0
        # The retry went back to the tracker's index, not around the ring.
        assert counts[LookupRequest] == 0

    def test_walk_local_retry_sends_walkers(self, monkeypatch):
        system = build_system(p_s=0.7, n_peers=30, search_mode="walk", max_refloods=1)
        origin = system.s_peers()[0]
        counts = count_deliveries(monkeypatch, system, WalkQuery, FloodQuery)
        qid = origin.lookup(local_key(origin, "walk-retry-"))
        system.engine.run_until(system.engine.now + system.config.lookup_timeout / 2)
        first = counts[WalkQuery]
        assert first > 0 and system.queries.get(qid).refloods == 0
        system.engine.run()
        assert system.queries.get(qid).refloods == 1
        assert counts[WalkQuery] > first
        assert counts[FloodQuery] == 0


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
            for key in t.swarm_tracker.contents():
                for holder in known_holders(t, key):
                    assert key in peers[holder].database

    def test_remote_lookup_has_no_reply_leg(self, monkeypatch):
        """The tracker forwards a remote lookup to the holder, which
        answers the origin: no BTLookupReply leg when the item exists."""
        system = build_system(p_s=0.8, n_peers=30, snetwork_style="bittorrent")
        holder = system.s_peers()[0]
        key = local_key(holder, "bt-remote-")
        system.populate([(holder.address, key, "v")])
        asker = next(p for p in system.s_peers() if p.t_peer != holder.t_peer)
        counts = count_deliveries(
            monkeypatch, system, BTLookupReply, FloodQuery, DataFound
        )
        calls = []
        asker.lookup(key, lambda *done: calls.append(done))
        system.engine.run()
        assert calls == [(True, "v", holder.address)]
        assert counts == {BTLookupReply: 0, FloodQuery: 1, DataFound: 1}

    def test_tracker_follows_items_across_t_peer_leaves(self):
        """Three t-peers leave gracefully; each hands its role to one of
        its s-peers, whose s-network re-announces its items to it.  Every
        lookup still resolves, and every item an s-peer holds is known
        to its t-peer's tracker."""
        system = build_system(p_s=0.8, n_peers=40, snetwork_style="bittorrent")
        populate(system, 200)
        system.leave_peers(sorted(p.address for p in system.t_peers())[:3])
        system.engine.run()
        peers = {p.address: p for p in system.alive_peers()}
        alive = sorted(peers)
        system.run_lookups(
            [(alive[(i * 11) % len(alive)], f"k{i}") for i in range(200)]
        )
        assert system.query_stats().failures == 0
        unknown = [
            item.key for p in system.s_peers() for item in p.database
            if p.address not in known_holders(peers[p.t_peer], item.key)
        ]
        assert unknown == []

    def test_tracker_follows_an_s_peer_leave_dump(self):
        """The s-peer holding the most items leaves gracefully: the
        recipient of its load dump announces the items, the tracker
        forgets the leaver, and every lookup of them still resolves."""
        system = build_system(
            p_s=0.9, n_peers=80, seed=1, snetwork_style="bittorrent",
            lookup_timeout=20_000.0,
        )
        populate(system, 300)
        leaver = max(system.s_peers(), key=lambda p: len(p.database))
        keys = [item.key for item in leaver.database]
        control = [
            item.key for p in system.s_peers() if p is not leaver for item in p.database
        ][:len(keys)]
        tracker = system.peers[leaver.t_peer]
        assert {known_holders(tracker, key)[0] for key in keys} == {leaver.address}
        system.leave_peers([leaver.address])
        system.engine.run()
        (recipient,) = [p for p in system.alive_peers() if keys[0] in p.database]
        assert recipient.role == "s"
        for key in keys:
            assert known_holders(tracker, key) == [recipient.address]
        alive = sorted(p.address for p in system.alive_peers())
        system.run_lookups(
            [(alive[(i * 7) % len(alive)], key) for i, key in enumerate(keys + control)]
        )
        stats = system.query_stats()
        assert stats.total == 2 * len(keys) and stats.failures == 0

    def test_crashes_fail_no_more_lookups_than_the_flood(self):
        """The quick Fig. 5b crash cell (a fifth of the peers crash,
        heartbeats on): tracker resolution loses no more lookups than
        flooding the same s-networks."""
        def failures(style):
            config = HybridConfig(
                p_s=0.6, heartbeats_enabled=True, lookup_timeout=30_000.0,
                snetwork_style=style,
            )
            return run_cell(config, Scale.quick(seed=2), crash_fraction=0.2).failures

        assert failures("bittorrent") <= failures("gnutella")

    def test_bt_negative_reply_fails_fast(self):
        system = build_system(p_s=0.8, n_peers=20, snetwork_style="bittorrent")
        origin = system.s_peers()[0].address
        start = system.engine.now
        system.run_lookups([(origin, "missing:key")])
        stats = system.query_stats()
        assert stats.failures == 1
        # Resolved well before the lookup timeout would have fired.
        assert system.engine.now - start < system.config.lookup_timeout


class TestCompletion:
    """``lookup(key, on_done)`` and ``store(..., on_verdict)`` report the
    end of an operation at its origin, exactly once."""

    @staticmethod
    def remote_pair(system, key):
        """The holder of ``key`` and an s-peer outside its s-network."""
        (holder,) = [p for p in system.alive_peers() if p.database.get(key)]
        anchor = holder.address if holder.role == "t" else holder.t_peer
        asker = next(p for p in system.s_peers() if p.t_peer != anchor)
        return holder, asker

    def test_local_hit_fires_before_lookup_returns(self):
        system = build_system(p_s=0.7, n_peers=30)
        populate(system, 30)
        holder = next(p for p in system.alive_peers() if len(p.database))
        item = next(iter(holder.database))
        calls = []
        qid = holder.lookup(item.key, lambda *done: calls.append(done))
        assert calls == [(True, item.value, holder.address)]
        system.engine.run()
        assert len(calls) == 1
        assert system.queries.get(qid).status == "success"
        assert qid not in holder.pending_lookups

    @pytest.mark.parametrize("value", ["payload", None])
    def test_remote_answer_carries_the_value(self, value):
        system = build_system(p_s=0.7, n_peers=30)
        system.populate([(system.t_peers()[0].address, "item", value)])
        holder, asker = self.remote_pair(system, "item")
        calls = []
        qid = asker.lookup("item", lambda *done: calls.append(done))
        assert calls == []
        system.engine.run()
        assert calls == [(True, value, holder.address)]
        rec = system.queries.get(qid)
        assert rec.status == "success" and rec.holder == holder.address

    def test_remote_walk_answers_the_origin(self):
        system = build_system(
            p_s=0.7, n_peers=30, search_mode="walk", walkers=6, walk_ttl=24
        )
        system.populate([(system.t_peers()[0].address, "item", "v")])
        holder, asker = self.remote_pair(system, "item")
        calls = []
        asker.lookup("item", lambda *done: calls.append(done))
        system.engine.run()
        assert calls == [(True, "v", holder.address)]

    def test_late_duplicate_answer_is_ignored(self):
        system = build_system(p_s=0.7, n_peers=30)
        system.populate([(system.t_peers()[0].address, "item", 1)])
        holder, asker = self.remote_pair(system, "item")
        calls = []
        qid = asker.lookup("item", lambda *done: calls.append(done))
        system.engine.run()
        end_time = system.queries.get(qid).end_time
        asker.on_DataFound(DataFound(query_id=qid, key="item", value=2, holder=-7))
        assert calls == [(True, 1, holder.address)]
        rec = system.queries.get(qid)
        assert (rec.holder, rec.end_time) == (holder.address, end_time)

    def test_timer_expiry_reports_failure(self):
        system = build_system(p_s=0.7, n_peers=30)
        origin = system.s_peers()[0]
        calls = []
        qid = origin.lookup("no-such-key", lambda *done: calls.append(done))
        system.engine.run()
        assert calls == [(False, None, -1)]
        assert system.queries.get(qid).status == "failed"
        assert system.engine.now >= system.config.lookup_timeout

    def test_bittorrent_negative_reports_failure_fast(self):
        system = build_system(p_s=0.8, n_peers=20, snetwork_style="bittorrent")
        origin = next(
            p for p in system.s_peers()
            if p.owns_locally(p.idspace.hash_key("missing:key"))
        )
        calls = []
        start = system.engine.now
        origin.lookup("missing:key", lambda *done: calls.append(done))
        system.engine.run()
        assert calls == [(False, None, -1)]
        assert system.engine.now - start < system.config.lookup_timeout

    @pytest.mark.parametrize("placement", ["direct", "spread"])
    def test_k1_tracked_store_reports_the_landing(self, placement):
        system = build_system(p_s=0.7, n_peers=30, placement=placement)
        origin = system.s_peers()[0]
        verdicts = []
        for i in range(20):
            origin.store(f"w{i}", i, on_verdict=lambda ok, lat: verdicts.append(ok))
        system.engine.run()
        assert verdicts == [True] * 20
        assert system.total_items() == 20
        assert not origin._write_watchers
