"""A peer costs what it uses: per-feature state appears on first use,
and a feature that is off has no state at all (its mixin is not in the
peer's class).

Attribute *counts*, not bytes, so every assertion repeats exactly --
apart from the dict sizes of the inline-layout test, which are CPython's
own fixed table sizes.
"""

from __future__ import annotations

import sys
from functools import cached_property

import pytest

from repro.core import HybridConfig, HybridSystem
from repro.core.failures import LivenessMixin
from repro.core.hybridpeer import FEATURES, HybridPeer
from repro.core.search import WalkMixin
from repro.core.snetwork import MeshMixin
from repro.enhance.bypass import BypassMixin
from repro.enhance.caching import CacheMixin
from repro.experiments.common import Scale, run_cell
from repro.replica import ReplicationMixin
from repro.swarm import SwarmMixin

from .conftest import build_bulk_system, build_system

# The containers each class creates on first use.
LAZY_BY_CLASS = {
    HybridPeer: {
        "join_queue", "deferred_leaves", "seen_queries",
        "pending_lookups", "_write_watchers",
    },
    LivenessMixin: {"neighbor_deadlines", "_last_liveness_sent"},
    ReplicationMixin: {"replicas", "_replica_pending"},
    SwarmMixin: {"swarm_pieces", "swarm_meta", "swarm_tracker", "_swarm_downloads"},
    CacheMixin: {"cache"},
    BypassMixin: {"bypass"},
    MeshMixin: {"extra_links"},
    WalkMixin: set(),
}
LAZY = set().union(*LAZY_BY_CLASS.values())
# Names every default peer sets in __init__ (DESIGN.md, "Peer state").
EAGER = 27
# CPython 3.11 keeps at most 29 names in a class's shared instance keys;
# a peer that takes one more holds a combined dict instead.
SHARED_KEYS_MAX = 29
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


def _cached_properties(cls, names) -> set:
    return {name for name in names if isinstance(getattr(cls, name), cached_property)}


def test_lazy_names_are_the_cached_properties():
    assert _cached_properties(HybridPeer, dir(HybridPeer)) == LAZY_BY_CLASS[HybridPeer]
    assert {mixin for _name, mixin, _on in FEATURES} == set(LAZY_BY_CLASS) - {HybridPeer}
    for _name, mixin, _on in FEATURES:
        assert _cached_properties(mixin, vars(mixin)) == LAZY_BY_CLASS[mixin], mixin


def test_idle_peer_carries_no_feature_state():
    system = bulk_system(ring_routing="finger")
    assert materialised(system) == {}
    for peer in system.peers.values():
        assert type(peer) is HybridPeer
        assert len(vars(peer)) <= EAGER
        assert "_dispatch" not in vars(peer)
    # The scalar companions read as their class defaults; features that
    # are off have none.
    peer = system.peers[1]
    assert peer._write_watch_seq == 0 and peer.cache is None
    assert not peer.extra_links and not peer._liveness
    for name in ("_replica_write_seq", "_replica_sync_timer",
                 "swarm_integrity_failures", "_watchdog", "hello_timer"):
        assert not hasattr(peer, name), name
    assert system.total_replicas() == 0
    assert materialised(system) == {}


def test_off_features_leave_no_state_on_crash_and_leave():
    # Heartbeats on, bypass links and the mesh ablation off: crash
    # recovery and an s-peer leave tell every neighbour, and none of
    # them may grow a bypass table or a mesh-link set.
    system = build_system(p_s=0.7, n_peers=60, seed=1, heartbeats_enabled=True)
    system.crash_peers([system.t_peers()[3].address])
    system.settle(20_000.0)
    system.leave_peers([system.s_peers()[5].address])
    system.settle(20_000.0)
    for peer in system.peers.values():
        assert not {"bypass", "extra_links"} & set(vars(peer)), peer.address


@pytest.fixture(scope="module")
def looked_up_bulk_cell():
    """The peers of a 2,000-peer bulk cell after its stores and lookups."""
    out = {}
    scale = Scale(n_peers=2_000, n_keys=400, n_lookups=200, wave_size=100,
                  bulk_build=True)
    result = run_cell(HybridConfig(p_s=0.7, ring_routing="finger"), scale,
                      system_out=out)
    assert result.successes == scale.n_lookups
    return list(out["system"].peers.values())


def test_a_lookup_cell_stays_within_the_shared_keys(looked_up_bulk_cell):
    assert {type(p) for p in looked_up_bulk_cell} == {HybridPeer}
    names = set().union(*(vars(p) for p in looked_up_bulk_cell))
    assert len(names) <= SHARED_KEYS_MAX
    # Past the eager names: the lookup path's two containers.
    assert {"pending_lookups", "seen_queries"} <= names


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info < (3, 11),
    reason="inline attribute values arrived in CPython 3.11",
)
def test_every_peer_keeps_a_split_table(looked_up_bulk_cell):
    # A split (shared-key) table is ~300 B; the combined table a peer
    # falls back to is 1,584 B.
    sizes = {sys.getsizeof(vars(p)) for p in looked_up_bulk_cell}
    assert len(sizes) == 1 and max(sizes) < 600, sizes


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
