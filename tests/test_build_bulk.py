"""``build_bulk``, the decomposed router and ``install_fingers``.

Every 10^5 / 10^6 figure rests on the protocol-free build and on the
router's transit-stub decomposition; this pins one bulk cell bit-for-bit (values taken
at the commit before the peer-state diet), checks the structure the
join protocol would have produced, and holds ``install_fingers`` to
the exhaustive algorithm it replaced.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.core import HybridConfig, HybridSystem
from repro.experiments.common import Scale, run_cell
from repro.net.routing import make_router
from repro.net.topology import (
    NodeKind,
    PhysicalTopology,
    config_for_size,
    generate_transit_stub,
)

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
    assert system.router._table is None  # past TABLE_LIMIT: rows summed on read


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


def test_bulk_requires_heterogeneity_awareness_off():
    # The breadth-first fill has no Section 5.1 link-usage rule: an
    # aware config must not silently get the base degree tree.
    system = HybridSystem(HybridConfig(heterogeneity_aware=True), n_peers=10)
    with pytest.raises(ValueError, match="heterogeneity_aware"):
        system.build_bulk()


def test_hier_router_agrees_with_dense():
    """The decomposition against one scipy Dijkstra over the whole graph."""
    topology = generate_transit_stub(config_for_size(1000), np.random.default_rng(5))
    router = make_router(topology)
    u, v, w = (list(col) for col in zip(*topology.edges))
    n = topology.n
    full = dijkstra(csr_matrix((w + w, (u + v, v + u)), shape=(n, n)), directed=False)
    assert router.min_edge_latency() == min(w)
    for src in range(0, n, 37):
        got = router.latency_row(src)
        assert all(abs(got[dst] - full[src, dst]) <= 1e-9 for dst in range(n))
        assert abs(router.latency(src, n - 1) - full[src, n - 1]) <= 1e-9


def reference_domains(topology):
    """Per stub domain: (members, gateway node, gateway weight, one
    ``dijkstra`` over that domain's own subgraph) -- the per-domain
    computation the blocked router must reproduce exactly."""
    kind, domain = topology.kind, topology.domain
    members, edges, gateway = {}, {}, {}
    for i in range(topology.n):
        if kind[i] is NodeKind.STUB:
            members.setdefault(domain[i], []).append(i)
    for u, v, lat in topology.edges:
        u_t, v_t = kind[u] is NodeKind.TRANSIT, kind[v] is NodeKind.TRANSIT
        if u_t != v_t:
            stub = v if u_t else u
            gateway[domain[stub]] = (stub, lat)
        elif not u_t:
            edges.setdefault(domain[u], []).append((u, v, lat))
    out = {}
    for d, mem in members.items():
        idx = {node: j for j, node in enumerate(mem)}
        a = [idx[u] for u, _, _ in edges.get(d, ())]
        b = [idx[v] for _, v, _ in edges.get(d, ())]
        vals = [lat for _, _, lat in edges.get(d, ())] * 2
        k = len(mem)
        graph = csr_matrix((vals, (a + b, b + a)), shape=(k, k))
        dist = dijkstra(graph, directed=False)
        out[d] = (mem, *gateway[d], dist)
    return out


@pytest.mark.parametrize("shape", [
    config_for_size(25000),
    config_for_size(20000, max_transit_nodes=64),  # domains grown past 64 nodes
])
def test_hier_router_stub_tables_exact(shape):
    topology = generate_transit_stub(shape, np.random.default_rng(3))
    router = make_router(topology)
    ref = reference_domains(topology)
    assert router._intra.keys() == ref.keys()
    for d, (mem, g, w, dist) in ref.items():
        assert np.array_equal(router._intra[d], dist)
        grow = dist[mem.index(g)]
        for j, node in enumerate(mem):
            assert router._to_transit[node] == float(grow[j]) + w


# (src, dst) pairs on ``config_for_size(1000)``, seed 5 (40 transit nodes,
# stub domains of 8 from host 40 on) and the digest of their node
# sequences, taken before predecessors became on-demand.
PATH_PAIRS = [
    (40, 47), (47, 40), (0, 39), (45, 3), (3, 45), (45, 45),
    *((int(a), int(b)) for a, b in np.random.default_rng(11).integers(0, 1000, (44, 2))),
]
PATH_GOLDEN = "d1493c1bc8e068ae"


def test_hier_router_path_golden():
    topology = generate_transit_stub(config_for_size(1000), np.random.default_rng(5))
    router = make_router(topology)
    paths = [router.path(src, dst) for src, dst in PATH_PAIRS]
    assert paths[5] == [45] and paths[1] == paths[0][::-1]
    assert hashlib.sha256(repr(paths).encode()).hexdigest()[:16] == PATH_GOLDEN


def _two_domains(edges):
    """Transit 0-1; stub domain 2 = {2, 3}, stub domain 3 = {4, 5}."""
    return PhysicalTopology(
        n=6,
        edges=edges,
        kind=[NodeKind.TRANSIT] * 2 + [NodeKind.STUB] * 4,
        domain=[0, 0, 2, 2, 3, 3],
        transit_attachment=[0, 1, 0, 0, 1, 1],
    )


@pytest.mark.parametrize("edges, match", [
    ([(0, 1, 10.0), (0, 2, 5.0), (2, 3, 1.0), (1, 4, 5.0)], "3 is not internally connected"),
    ([(0, 1, 10.0), (0, 2, 5.0), (2, 3, 1.0), (4, 5, 1.0)], "3 has no gateway"),
    ([(0, 1, 10.0), (0, 2, 5.0), (2, 3, 1.0), (0, 3, 5.0), (1, 4, 5.0), (4, 5, 1.0)],
     "2 has multiple gateway"),
])
def test_hier_router_rejects_malformed_domains(edges, match):
    with pytest.raises(ValueError, match=match):
        make_router(_two_domains(edges))


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
