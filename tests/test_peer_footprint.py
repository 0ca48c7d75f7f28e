"""A peer costs what it uses: per-feature state appears on first use.

Attribute *counts*, not bytes, so every assertion repeats exactly.
"""

from __future__ import annotations

from functools import cached_property

import pytest

from repro.core import HybridSystem
from repro.core.hybridpeer import HybridPeer

from .conftest import build_bulk_system

LAZY = {
    "join_queue", "deferred_leaves", "_dump_candidates", "extra_links",
    "neighbor_deadlines", "_last_liveness_sent", "seen_queries",
    "pending_lookups", "pending_searches", "bt_index", "bypass",
    "replicas", "_replica_pending", "_write_watchers",
    "swarm_pieces", "swarm_meta", "swarm_tracker", "_swarm_downloads",
}
# State that leave/crash paths only ever cancel and empty.
CLEAR_ONLY = {
    "pending_lookups", "neighbor_deadlines", "_replica_pending",
    "_write_watchers", "_swarm_downloads",
}


def bulk_system(**config_kwargs) -> HybridSystem:
    return build_bulk_system(200, seed=3, **config_kwargs)


def materialised(system: HybridSystem) -> dict:
    """address -> lazy names present in that peer's instance dict."""
    found = {a: LAZY & set(vars(p)) for a, p in system.peers.items()}
    return {a: names for a, names in found.items() if names}


def test_lazy_names_are_the_cached_properties():
    declared = {
        name for name in dir(HybridPeer)
        if isinstance(getattr(HybridPeer, name), cached_property)
    }
    assert declared == LAZY


def test_idle_peer_carries_no_feature_state():
    system = bulk_system(ring_routing="finger")
    assert materialised(system) == {}
    for peer in system.peers.values():
        assert len(vars(peer)) <= 46
        assert "_dispatch" not in vars(peer)
    # The scalar companions read as their class defaults.
    peer = system.peers[1]
    assert peer._replica_write_seq == peer._write_watch_seq == 0
    assert peer._replica_sync_timer is None and peer.swarm_integrity_failures == 0
    assert peer._watchdog is None and "_watchdog" not in vars(peer)
    assert system.total_replicas() == 0
    assert materialised(system) == {}


@pytest.mark.parametrize("role", ["t", "s"])
@pytest.mark.parametrize("exit_call", ["crash", "_depart"])
def test_abrupt_exit_of_untouched_peer_creates_nothing(role, exit_call):
    system = bulk_system()
    peer = (system.t_peers() if role == "t" else system.s_peers())[5]
    getattr(peer, exit_call)()
    assert not peer.alive
    assert materialised(system) == {}


@pytest.mark.parametrize("role", ["t", "s"])
def test_leave_of_untouched_peer(role):
    system = bulk_system()
    peer = (system.t_peers() if role == "t" else system.s_peers())[5]
    system.leave_peers([peer.address])
    system.engine.run()
    assert not peer.alive
    assert not CLEAR_ONLY & set(vars(peer))
    # Only the leaver's ring / tree neighbours hear about it.
    assert len(materialised(system)) <= 1 + system.config.delta


def test_flood_and_lookup_materialise_only_what_they_use():
    system = bulk_system()
    origin = system.s_peers()[0]
    system.populate([(origin.address, "k1", 1)])
    assert materialised(system) == {}  # a store needs no per-feature state

    (holder,) = [p for p in system.peers.values() if len(p.database)]
    asker = next(p for p in system.s_peers() if p.t_peer != holder.t_peer)
    system.run_lookups([(asker.address, "k1")])
    stats = system.query_stats()
    assert stats.successes == 1 and stats.connum > 3

    touched = materialised(system)
    assert touched.pop(asker.address) == {"pending_lookups"}
    # The ring walk creates nothing; the flood in the holder's s-network
    # leaves its dedup set on the peers it reached (the mesh-link set is
    # read only where the ablation created one), and the holder answers
    # without fanning out.
    assert touched.pop(holder.address) == {"seen_queries"}
    assert touched
    flooded = {holder.t_peer} | {
        p.address for p in system.s_peers() if p.t_peer == holder.t_peer
    }
    for address, names in touched.items():
        assert address in flooded
        assert names == {"seen_queries"}


def test_replicated_write_materialises_only_what_it_uses():
    system = bulk_system(replication_factor=3, write_quorum=2)
    origin = system.s_peers()[0]
    verdicts = []
    origin.store("k1", 1, on_verdict=lambda ok, latency: verdicts.append(ok))
    system.engine.run()
    assert verdicts == [True]

    (owner,) = [p for p in system.peers.values() if len(p.database)]
    holders = [p for p in system.peers.values() if p._touched("replicas")]
    assert len(holders) == 2 and system.total_replicas() == 2
    expected = {
        origin.address: {"_write_watchers"},
        owner.address: {"_replica_pending"},
        **{p.address: {"replicas"} for p in holders},
    }
    assert materialised(system) == expected
    assert owner._replica_write_seq == 1 and origin._write_watch_seq == 1
