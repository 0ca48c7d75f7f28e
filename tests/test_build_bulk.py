"""``build_bulk``, ``HierRouter`` and ``install_fingers``.

Every 10^5 / 10^6 figure rests on the protocol-free build and on the
hierarchical router; this pins one bulk cell bit-for-bit (values taken
at the commit before the peer-state diet), checks the structure the
join protocol would have produced, and holds ``install_fingers`` to
the exhaustive algorithm it replaced.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import HybridConfig, HybridSystem
from repro.experiments.common import Scale, run_cell
from repro.net.routing import HierRouter, Router, make_router
from repro.net.topology import config_for_size, generate_transit_stub

from .conftest import build_bulk_system, check_ring, check_trees


def test_bulk_cell_golden():
    out = {}
    result = run_cell(
        HybridConfig(p_s=0.7, ring_routing="finger"),
        Scale(n_peers=5000, n_keys=1000, n_lookups=500, seed=0,
              wave_size=250, bulk_build=True),
        system_out=out,
    )
    assert result.mean_latency == 1558.6011999111256
    assert result.median_latency == 1567.3562887835183
    assert result.connum == 4224
    assert result.successes == 500
    assert (result.n_t_peers, result.n_s_peers) == (1500, 3500)
    system = out["system"]
    assert system.engine.events_executed == 12206
    assert isinstance(system.router, HierRouter)


def test_bulk_structure():
    system = build_bulk_system(2000, ring_routing="finger")
    assert system.built and all(p.joined for p in system.peers.values())
    check_ring(system)  # sorted, closed, pointers mutually consistent
    check_trees(system)  # every cp chain reaches its t_peer
    delta = system.config.delta
    assert all(p.tree_degree() <= delta for p in system.peers.values())
    server = system.server
    assert sum(server.s_counts.values()) == server.s_count == len(system.s_peers())
    assert server.t_count == len(server.ring) == len(system.t_peers())
    assert server.s_counts == system.snetwork_sizes()


def test_bulk_requires_heartbeats_off():
    system = HybridSystem(HybridConfig(heartbeats_enabled=True), n_peers=10)
    with pytest.raises(ValueError, match="heartbeats"):
        system.build_bulk()


def test_hier_router_agrees_with_dense():
    topology = generate_transit_stub(config_for_size(1000), np.random.default_rng(5))
    dense = make_router(topology)
    hier = make_router(topology, dense_limit=0)
    assert isinstance(dense, Router) and isinstance(hier, HierRouter)
    assert hier.min_edge_latency() == dense.min_edge_latency()
    for src in range(0, topology.n, 37):
        want, got = dense.latency_row(src), hier.latency_row(src)
        assert all(abs(got[dst] - want[dst]) <= 1e-9 for dst in range(topology.n))
        assert abs(hier.latency(src, topology.n - 1) - want[topology.n - 1]) <= 1e-9


# ----------------------------------------------------------------------
# install_fingers
# ----------------------------------------------------------------------
def exhaustive_fingers(system: HybridSystem) -> dict:
    """The algorithm ``install_fingers`` replaced: probe all ``bits``
    finger starts of every t-peer and let ``seen`` drop the repeats."""
    tables = {}
    for peer in system.peers.values():
        if peer.role != "t" or not peer.alive:
            continue
        fingers, seen = [], set()
        for k in range(system.idspace.bits):
            start = system.idspace.finger_start(peer.p_id, k)
            f_pid, f_addr = system.server.ring.owner_of(start)
            if f_addr != peer.address and f_addr not in seen:
                seen.add(f_addr)
                fingers.append((f_pid, f_addr))
        tables[peer.address] = fingers
    return tables


@pytest.mark.parametrize("n_t", [1, 2, 3, 1500])
def test_install_fingers_equals_exhaustive(n_t):
    if n_t <= 3:
        system = build_bulk_system(n_t, p_s=0.0, seed=n_t, ring_routing="finger")
    else:
        system = build_bulk_system(5000, seed=n_t, ring_routing="finger")
    t_peers = system.t_peers()
    assert len(t_peers) == n_t
    installed = {p.address: p.fingers for p in t_peers}
    assert installed == exhaustive_fingers(system)
    if n_t == 1:
        assert installed == {t_peers[0].address: []}
    else:
        # The first finger is always the ring successor.
        assert all(p.fingers[0] == (p.successor_pid, p.successor) for p in t_peers)
