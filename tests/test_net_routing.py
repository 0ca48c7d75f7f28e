"""Unit tests for shortest-path routing."""

from __future__ import annotations

import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.net import (
    NodeKind,
    PhysicalTopology,
    Router,
    TransitStubConfig,
    generate_transit_stub,
    routing,
)
from repro.net.topology import config_for_size
from repro.overlay.messages import Hello
from repro.overlay.transport import Transport
from repro.sim import Engine

from .test_transport import line_topology


def tiny_topology() -> PhysicalTopology:
    """A 4-node diamond with a cheap bottom path: 0-1-3 costs 2,
    0-2-3 costs 10."""
    return PhysicalTopology(
        n=4,
        edges=[(0, 1, 1.0), (1, 3, 1.0), (0, 2, 5.0), (2, 3, 5.0)],
        kind=[NodeKind.TRANSIT] * 4,
        domain=[0, 0, 0, 0],
        transit_attachment=[0, 1, 2, 3],
    )


class TestRouter:
    def test_latency_is_shortest_path(self):
        r = Router(tiny_topology())
        assert r.latency(0, 3) == pytest.approx(2.0)
        assert r.latency(0, 2) == pytest.approx(5.0)

    def test_latency_symmetric(self):
        r = Router(tiny_topology())
        assert r.latency(1, 2) == r.latency(2, 1)

    def test_self_latency_zero(self):
        r = Router(tiny_topology())
        assert r.latency(2, 2) == 0.0

    def test_path_extraction(self):
        r = Router(tiny_topology())
        assert r.path(0, 3) == [0, 1, 3]
        assert r.path(3, 0) == [3, 1, 0]
        assert r.path(1, 1) == [1]

    def test_path_edges_sorted_pairs(self):
        r = Router(tiny_topology())
        assert r.path_edges(3, 0) == [(1, 3), (0, 1)]

    def test_hop_count(self):
        r = Router(tiny_topology())
        assert r.hop_count(0, 3) == 2
        assert r.hop_count(0, 0) == 0

    def test_disconnected_topology_rejected(self):
        topo = PhysicalTopology(
            n=4,
            edges=[(0, 1, 1.0), (2, 3, 1.0)],
            kind=[NodeKind.STUB] * 4,
            domain=[0, 0, 1, 1],
            transit_attachment=[0, 0, 2, 2],
        )
        with pytest.raises(ValueError, match="not connected"):
            Router(topo)

    def test_triangle_inequality_on_generated_topology(self, rng):
        topo = generate_transit_stub(TransitStubConfig(), rng)
        r = Router(topo)
        # Spot-check: d(a,c) <= d(a,b) + d(b,c) for a sample of triples.
        picks = rng.integers(0, topo.n, size=(30, 3))
        for a, b, c in picks:
            a, b, c = int(a), int(b), int(c)
            assert r.latency(a, c) <= r.latency(a, b) + r.latency(b, c) + 1e-9

    def test_path_latency_consistent_with_matrix(self, rng):
        topo = generate_transit_stub(TransitStubConfig(), rng)
        r = Router(topo)
        weights = {tuple(sorted((u, v))): lat for u, v, lat in topo.edges}
        for a, b in [(0, topo.n - 1), (3, 7), (1, topo.n // 2)]:
            total = sum(weights[e] for e in r.path_edges(a, b))
            assert total == pytest.approx(r.latency(a, b))


# ----------------------------------------------------------------------
# Rows are views of the float64 tables; predecessors are per source
# ----------------------------------------------------------------------
def sized_topology(n_peers: int, seed: int) -> PhysicalTopology:
    """The topology a ``HybridSystem`` of ``n_peers`` peers runs on."""
    return generate_transit_stub(config_for_size(n_peers + 1), np.random.default_rng(seed))


@pytest.fixture(scope="module")
def quick_topology():
    return sized_topology(120, 3)


@pytest.fixture(scope="module")
def paper_topology():
    return sized_topology(1000, 0)


def bits(x: float) -> str:
    return float.hex(x)


def graph(k: int, edges) -> csr_matrix:
    """Symmetric scipy graph of ``k`` nodes and ``(u, v, w)`` edges."""
    u, v, w = ([e[i] for e in edges] for i in range(3))
    return csr_matrix((w + w, (u + v, v + u)), shape=(k, k))


def hier_reference(hier: Router, src: int, dst: int) -> float:
    """The decomposition read entry by entry from the router's tables."""
    topo = hier.topology
    if src == dst:
        return 0.0
    if topo.kind[src] is NodeKind.STUB and topo.domain[src] == topo.domain[dst]:
        index = hier._dom_index[topo.domain[src]]
        return float(hier._intra[topo.domain[src]][index[src], index[dst]])
    tt = float(hier._tt[hier._tindex[src], hier._tindex[dst]])
    return hier._to_transit[src] + tt + hier._to_transit[dst]


class TestRowsAreExact:
    def test_dense_rows_are_the_matrix(self, quick_topology):
        router = Router(quick_topology)
        matrix = router._table
        assert matrix is not None and matrix.shape == (router.n, router.n)
        for src in range(router.n):
            row = router.latency_row(src)
            for dst in range(router.n):
                want = bits(float(matrix[src, dst]))
                got, single = row[dst], router.latency(src, dst)
                assert type(got) is float and type(single) is float
                assert bits(got) == bits(single) == want
        with pytest.raises(TypeError):
            router.latency_row(0)[1] = 0.0  # a write would land in the table

    def test_hier_rows_are_the_decomposition(self, quick_topology, monkeypatch):
        monkeypatch.setattr(routing, "TABLE_LIMIT", 0)  # scipy-solved, summed on read
        router = Router(quick_topology)
        assert router._table is None
        for src in range(router.n):
            row = router.latency_row(src)
            for dst in range(router.n):
                got, single = row[dst], router.latency(src, dst)
                assert type(got) is float and type(single) is float
                assert bits(got) == bits(single) == bits(hier_reference(router, src, dst))

    def test_table_rows_are_the_decomposed_rows(self, paper_topology, monkeypatch):
        table = Router(paper_topology)
        monkeypatch.setattr(routing, "TABLE_LIMIT", 0)
        hier = Router(paper_topology)
        assert table._table is not None and hier._table is None
        n = paper_topology.n
        for src in range(0, n, 17):
            want, got = hier.latency_row(src), table.latency_row(src)
            assert [bits(got[dst]) for dst in range(n)] == [bits(want[dst]) for dst in range(n)]

    @pytest.mark.parametrize("which", ["quick_topology", "paper_topology"])
    def test_paths_match_the_all_pairs_predecessors(self, which, request):
        topology = request.getfixturevalue(which)
        router = Router(topology)
        _, pred = dijkstra(graph(topology.n, topology.edges), directed=False, return_predecessors=True)

        def walk(src: int, dst: int) -> list:
            nodes = [dst]
            while nodes[-1] != src:
                nodes.append(int(pred[src, nodes[-1]]))
            return nodes[::-1]

        n = topology.n
        for src in range(n):
            for dst in range(src % 7, n, 7):
                assert router.path(src, dst) == walk(src, dst)


# ----------------------------------------------------------------------
# The numpy solve is scipy's dijkstra, bit for bit
# ----------------------------------------------------------------------
def split(topology: PhysicalTopology):
    """The transit core and every stub domain as ``(nodes, edges)``
    graphs in local numbering, each edge once."""
    kind, domain = topology.kind, topology.domain
    groups = {}
    for i in range(topology.n):
        key = "core" if kind[i] is NodeKind.TRANSIT else domain[i]
        groups.setdefault(key, []).append(i)
    edges = {key: [] for key in groups}
    for u, v, w in topology.edges:
        if (kind[u] is NodeKind.TRANSIT) != (kind[v] is NodeKind.TRANSIT):
            continue  # a gateway edge
        edges["core" if kind[u] is NodeKind.TRANSIT else domain[u]].append((u, v, w))
    out = {}
    for key, nodes in groups.items():
        at = {node: j for j, node in enumerate(nodes)}
        out[key] = (nodes, [(at[u], at[v], w) for u, v, w in edges[key]])
    return out


HAND_BUILT = [tiny_topology, line_topology]


class TestNumpySolve:
    @pytest.mark.parametrize("n_peers, seed", [(120, 3), (1000, 0), (4000, 1)])
    def test_core_and_every_domain_equal_dijkstra(self, n_peers, seed):
        graphs = split(sized_topology(n_peers, seed))
        by_size = {}
        for nodes, edges in graphs.values():
            by_size.setdefault(len(nodes), []).append(edges)
        for k, batch in by_size.items():  # batched as the router does
            flat = [(g, a, b, w) for g, edges in enumerate(batch) for a, b, w in edges]
            got = routing._all_pairs(len(batch), k, flat)
            for g, edges in enumerate(batch):
                assert np.array_equal(got[g], dijkstra(graph(k, edges), directed=False))

    @pytest.mark.parametrize("which", ["quick_topology", "paper_topology"])
    def test_router_tables_equal_dijkstra(self, which, request):
        topology = request.getfixturevalue(which)
        router = Router(topology)
        for key, (nodes, edges) in split(topology).items():
            want = dijkstra(graph(len(nodes), edges), directed=False)
            got = router._tt if key == "core" else router._intra[key]
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("build", HAND_BUILT, ids=lambda f: f.__name__)
    def test_hand_built_graphs_equal_dijkstra(self, build):
        topology = build()
        router = Router(topology)
        want = dijkstra(graph(topology.n, topology.edges), directed=False)
        assert np.array_equal(router._tt, want)
        assert np.array_equal(router._table, want)


class TestFootprint:
    def test_fresh_router_holds_distances_only(self, paper_topology):
        router = Router(paper_topology)
        arrays = [v for v in vars(router).values() if isinstance(v, np.ndarray)]
        assert [a.dtype for a in arrays] == [np.float64, np.float64]  # core, table
        assert not router._tt_pred and not router._intra_pred
        router.path(0, router.n - 1)  # transit source, stub destination
        assert [p.shape for p in router._tt_pred.values()] == [(len(router._transit),)]
        assert len(router._intra_pred) == 1

    def test_row_cache_copies_no_row(self, paper_topology):
        """One read per source host through the transport's row cache
        keeps views, not n-entry lists (~50 MB of lists at this size)."""
        router = Router(paper_topology)
        engine = Engine()
        transport = Transport(engine, router=router)

        class Host:
            alive = True

            def __init__(self, host: int) -> None:
                self.address = self.host = host

            def receive(self, msg) -> None:
                pass

        hosts = [Host(h) for h in range(router.n)]
        for h in hosts:
            transport.register(h)
        msg = Hello()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for h in hosts:
                transport.send(h, (h.host + 1) % router.n, msg)
            engine.run()  # what stays: rows and the delay memo, not the heap
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(transport._rows) == router.n
        assert grown < 1_000_000, f"{grown / 1e6:.1f} MB for {router.n} rows"


# ----------------------------------------------------------------------
# scipy is loaded only past TABLE_LIMIT
# ----------------------------------------------------------------------
SCIPY_FREE = textwrap.dedent("""
    import asyncio, sys
    import repro.runtime, repro.experiments.common
    from repro import HybridConfig, HybridSystem
    from repro.experiments.common import Scale, run_cell
    from repro.runtime import LocalNet, fast_config

    def loaded():
        return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

    run_cell(HybridConfig(), Scale.quick())
    HybridSystem(HybridConfig(), n_peers=1000)

    async def boot():
        net = LocalNet(t_peers=2, s_peers=2, seed=1, config=fast_config())
        await net.start(join_timeout=20)
        await net.stop()

    asyncio.run(boot())
    assert not loaded(), loaded()
    HybridSystem(HybridConfig(), n_peers=5000)
    assert "scipy.sparse.csgraph" in sys.modules
    print("ok")
""")


def test_scipy_loads_only_past_the_table_limit():
    """A quick cell, a paper-size system and a 5-node localnet boot never
    import scipy; a 5,000-host system does (the decomposed form)."""
    out = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE], capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["ok"]
