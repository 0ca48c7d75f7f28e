"""Shortest-path routing over the physical topology.

Overlay links are logical: each corresponds to the physical shortest
path between the hosts of the two peers.  This module precomputes
all-pairs shortest paths (latency-weighted Dijkstra via
``scipy.sparse.csgraph``) and exposes:

* ``latency(u, v)`` -- end-to-end propagation delay of the path, and
* ``path(u, v)`` -- the node sequence, used for link-stress accounting.

For the paper's scale (1,000 physical nodes) the dense :class:`Router`
computes the distance matrix (~12 MB at 1,250 hosts) once per topology.
Above :data:`DENSE_ROUTER_LIMIT` hosts :class:`HierRouter` keeps a
hierarchical decomposition instead.  Both keep distances only and build
predecessors per source (or stub domain) the first time ``path`` walks
it: only link-stress accounting reads paths.

Latency rows are zero-copy, read-only ``memoryview`` slices of the
float64 tables: ``row[dst]`` is a plain Python ``float`` holding the very
IEEE double the matrix stores, so delays -- and therefore event ordering
-- do not depend on how a row is read.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .topology import NodeKind, PhysicalTopology

__all__ = ["Router", "HierRouter", "make_router", "DENSE_ROUTER_LIMIT"]

# Above this host count the dense all-pairs matrices (O(n^2) doubles)
# stop fitting in memory and make_router switches to HierRouter.
DENSE_ROUTER_LIMIT = 4096


def _row_view(matrix: np.ndarray, i: int) -> memoryview:
    """Row ``i`` of a C-contiguous float64 matrix as a flat, read-only view.

    Slicing one flat ``memoryview`` costs one object (~200 B) and no
    copy; ``memoryview(matrix[i])`` would add an ndarray view (~500 B).
    Read-only because a write would land in the router's table.
    """
    k = matrix.shape[1]
    flat = memoryview(matrix).toreadonly().cast("B").cast("d")
    return flat[i * k : (i + 1) * k]


class Router:
    """All-pairs latency routing table for a :class:`PhysicalTopology`."""

    def __init__(self, topology: PhysicalTopology) -> None:
        self.topology = topology
        n = topology.n
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        for u, v, lat in topology.edges:
            rows.extend((u, v))
            cols.extend((v, u))
            vals.extend((lat, lat))
        graph = csr_matrix((vals, (rows, cols)), shape=(n, n))
        dist = dijkstra(graph, directed=False)
        if np.isinf(dist).any():
            raise ValueError("physical topology is not connected")
        self._graph = graph
        self._dist = dist
        self._pred: Dict[int, np.ndarray] = {}  # per source, on demand

    @property
    def n(self) -> int:
        return self.topology.n

    def latency(self, src: int, dst: int) -> float:
        """Propagation delay (ms) of the shortest path ``src -> dst``."""
        return self._dist.item(src, dst)

    def latency_row(self, src: int) -> memoryview:
        """Row ``src`` of the latency matrix as a zero-copy view.

        ``row[dst]`` is a C-level index returning a plain ``float`` --
        the bulk-delay primitive behind :meth:`Transport.send_many`,
        which caches one view per source host.
        """
        return _row_view(self._dist, src)

    def latency_matrix(self) -> np.ndarray:
        """The full (n, n) latency matrix (a view; do not mutate)."""
        return self._dist

    def path(self, src: int, dst: int) -> List[int]:
        """Node sequence of the shortest path, inclusive of endpoints."""
        if src == dst:
            return [src]
        pred = self._pred.get(src)
        if pred is None:
            _, pred = dijkstra(
                self._graph, directed=False, indices=src, return_predecessors=True
            )
            self._pred[src] = pred
        nodes = [dst]
        cur = dst
        while cur != src:
            cur = int(pred[cur])
            if cur < 0:  # pragma: no cover - connectivity checked in init
                raise ValueError(f"no path {src} -> {dst}")
            nodes.append(cur)
        nodes.reverse()
        return nodes

    def path_edges(self, src: int, dst: int) -> List[Tuple[int, int]]:
        """Edges of the shortest path as sorted (u, v) pairs."""
        nodes = self.path(src, dst)
        return [tuple(sorted((a, b))) for a, b in zip(nodes, nodes[1:])]  # type: ignore[misc]

    def hop_count(self, src: int, dst: int) -> int:
        """Number of physical links on the path."""
        return len(self.path(src, dst)) - 1

    def min_edge_latency(self) -> float:
        """Cheapest physical link (ms): a lower bound on any one-hop
        propagation delay, used as the conservative-sync lookahead."""
        return min(lat for _, _, lat in self.topology.edges)


# Most nodes per block-diagonal stub-domain graph in one scipy call:
# ~64 domains of 8, whose dense 512 x 512 result is 2 MB.
_BLOCK_NODES = 512


def _undirected(
    edges: Iterable[Tuple[int, int, float]], index: Dict[int, int], k: int
) -> csr_matrix:
    """Symmetric ``k x k`` CSR of ``edges``, nodes renumbered by ``index``."""
    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    for u, v, lat in edges:
        a, b = index[u], index[v]
        rows.extend((a, b))
        cols.extend((b, a))
        vals.extend((lat, lat))
    return csr_matrix((vals, (rows, cols)), shape=(k, k))


class _HierRow:
    """Latency row of a :class:`HierRouter` source host.

    Quacks like the view :meth:`Router.latency_row` returns --
    ``row[dst]`` is a plain ``float`` -- without materializing n doubles
    per source.  It holds views, not copies: the source's stub domain
    index (shared by every member) and that domain's intra-distance row
    for same-domain destinations, and the transit row of the source's
    attachment point for everything else, which decomposes over the
    single gateway edge of each stub domain (see :class:`HierRouter`).
    """

    __slots__ = ("_base", "_tt", "_tindex", "_to_transit", "_index", "_local")

    def __init__(
        self,
        base: float,
        tt: memoryview,
        tindex: List[int],
        to_transit: List[float],
        index: Dict[int, int],
        local: Optional[memoryview],
    ) -> None:
        self._base = base
        self._tt = tt
        self._tindex = tindex
        self._to_transit = to_transit
        self._index = index
        self._local = local

    def __getitem__(self, dst: int) -> float:
        j = self._index.get(dst)
        if j is not None:
            return self._local[j]  # type: ignore[index]
        return self._base + self._tt[self._tindex[dst]] + self._to_transit[dst]


# A transit source has no stub domain: every destination, itself
# included (0.0 + T(t, t) + 0.0), takes the decomposed sum.
_NO_DOMAIN: Dict[int, int] = {}


class HierRouter:
    """Hierarchical routing table for large transit-stub topologies.

    The dense :class:`Router` stores O(n^2) doubles -- 80 GB at 10^5
    hosts -- which caps cell sizes long before the event loop does.
    Transit-stub topologies don't need it: by construction
    (:func:`~repro.net.topology.generate_transit_stub`) every stub
    domain attaches to the backbone through exactly *one* gateway edge,
    so any path leaving a stub domain crosses that edge, and any
    excursion from the transit core into a stub domain is a detour.
    Shortest paths therefore decompose exactly:

    ``lat(u, v) = d_D(u, g_D) + w_D  +  T(t_D, t_E)  +  w_E + d_E(g_E, v)``

    where ``d_X`` is the all-pairs distance *inside* stub domain ``X``
    (8 nodes by default; :func:`~repro.net.topology.config_for_size`
    grows domains once the core reaches its cap, to 82 nodes at 10^6
    hosts), ``g_X``/``w_X`` its gateway node and gateway edge weight, and
    ``T`` the all-pairs distance over the transit-only subgraph.  Memory
    is O(n_t^2 + sum |D|^2) instead of O(n^2).  Domains are solved
    :data:`_BLOCK_NODES` nodes per scipy call; predecessors, which only
    :meth:`path` (link-stress accounting) reads, are computed on demand.

    The decomposition yields the same shortest-path *lengths* as the
    dense router up to IEEE summation association; ``make_router`` only
    selects this class above :data:`DENSE_ROUTER_LIMIT`, where no dense
    reference exists, and every shard of a sharded run uses the same
    implementation, so determinism across shard counts is unaffected.
    """

    def __init__(self, topology: PhysicalTopology) -> None:
        self.topology = topology
        n = topology.n
        kind = topology.kind
        domain = topology.domain
        attach = topology.transit_attachment

        # --- transit core ------------------------------------------------
        transit = [i for i in range(n) if kind[i] is NodeKind.TRANSIT]
        self._transit = transit
        t_of = {node: i for i, node in enumerate(transit)}
        n_t = len(transit)
        core_edges: List[Tuple[int, int, float]] = []
        # Per-stub-domain edge lists and the one gateway edge.
        dom_edges: Dict[int, List[Tuple[int, int, float]]] = {}
        gateway: Dict[int, Tuple[int, float]] = {}  # domain -> (gateway node, w)
        for u, v, lat in topology.edges:
            u_t = kind[u] is NodeKind.TRANSIT
            v_t = kind[v] is NodeKind.TRANSIT
            if u_t and v_t:
                core_edges.append((u, v, lat))
            elif u_t != v_t:
                stub = v if u_t else u
                d = domain[stub]
                if d in gateway:
                    raise ValueError(
                        f"stub domain {d} has multiple gateway edges; "
                        "HierRouter requires the single-gateway transit-stub form"
                    )
                gateway[d] = (stub, lat)
            else:
                if domain[u] != domain[v]:  # pragma: no cover - generator invariant
                    raise ValueError("stub edge crosses domains")
                dom_edges.setdefault(domain[u], []).append((u, v, lat))
        self._core = _undirected(core_edges, t_of, n_t)
        tt_dist = dijkstra(self._core, directed=False)
        if np.isinf(tt_dist).any():
            raise ValueError("transit core is not connected")
        self._tt = tt_dist
        self._tt_pred: Dict[int, np.ndarray] = {}  # per source, on demand

        # --- stub domains ------------------------------------------------
        # Members in node order; intra-domain all-pairs per domain.
        members: Dict[int, List[int]] = {}
        for i in range(n):
            if kind[i] is NodeKind.STUB:
                members.setdefault(domain[i], []).append(i)
        for d in members:
            if d not in gateway:
                raise ValueError(f"stub domain {d} has no gateway edge")
        self._members = members
        self._dom_index: Dict[int, Dict[int, int]] = {
            d: {node: j for j, node in enumerate(mem)} for d, mem in members.items()
        }
        self._dom_edges = dom_edges
        self._intra: Dict[int, np.ndarray] = {}
        self._intra_pred: Dict[int, np.ndarray] = {}  # per domain, on demand
        self._gateway = gateway
        # Per-host: index of the attachment transit node, and the exact
        # distance to it (0.0 for transit nodes).
        tindex = [t_of[attach[i]] for i in range(n)]
        to_transit = [0.0] * n
        # Domains go to scipy a block at a time, as one block-diagonal
        # graph: no path leaves a domain, so each source's run is the
        # per-domain run, and its diagonal block is that domain's table.
        block: List[int] = []
        size = 0
        for d, mem in members.items():
            if block and size + len(mem) > _BLOCK_NODES:
                self._solve_block(block, to_transit)
                block, size = [], 0
            block.append(d)
            size += len(mem)
        if block:
            self._solve_block(block, to_transit)
        self._tindex = tindex
        self._to_transit = to_transit

    def _solve_block(self, block: List[int], to_transit: List[float]) -> None:
        """All-pairs for the stub domains ``block`` in one scipy call."""
        at: Dict[int, int] = {}
        edges: List[Tuple[int, int, float]] = []
        for d in block:
            for node in self._members[d]:
                at[node] = len(at)
            edges.extend(self._dom_edges.get(d, ()))
        dist = dijkstra(_undirected(edges, at, len(at)), directed=False)
        lo = 0
        for d in block:
            mem = self._members[d]
            hi = lo + len(mem)
            sub = dist[lo:hi, lo:hi].copy()
            lo = hi
            if np.isinf(sub).any():
                raise ValueError(f"stub domain {d} is not internally connected")
            self._intra[d] = sub
            g, w = self._gateway[d]
            grow = sub[self._dom_index[d][g]].tolist()
            for node, gd in zip(mem, grow):
                to_transit[node] = gd + w

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.topology.n

    def latency_row(self, src: int) -> _HierRow:
        """Row object supporting ``row[dst]``; views only, so not cached."""
        topo = self.topology
        if topo.kind[src] is NodeKind.STUB:
            d = topo.domain[src]
            index = self._dom_index[d]
            local: Optional[memoryview] = _row_view(self._intra[d], index[src])
            base = self._to_transit[src]
        else:
            index, local, base = _NO_DOMAIN, None, 0.0
        tt = _row_view(self._tt, self._tindex[src])
        return _HierRow(base, tt, self._tindex, self._to_transit, index, local)

    def latency(self, src: int, dst: int) -> float:
        """Propagation delay (ms) of the shortest path ``src -> dst``."""
        return self.latency_row(src)[dst]

    def min_edge_latency(self) -> float:
        """Cheapest physical link (ms); see :meth:`Router.min_edge_latency`."""
        return min(lat for _, _, lat in self.topology.edges)

    # ------------------------------------------------------------------
    # Paths (cold path: link-stress accounting only)
    # ------------------------------------------------------------------
    def _intra_path(self, d: int, src: int, dst: int) -> List[int]:
        mem = self._members[d]
        idx = self._dom_index[d]
        pred = self._intra_pred.get(d)
        if pred is None:
            graph = _undirected(self._dom_edges.get(d, ()), idx, len(mem))
            _, pred = dijkstra(graph, directed=False, return_predecessors=True)
            self._intra_pred[d] = pred
        nodes = [dst]
        cur = idx[dst]
        s = idx[src]
        while cur != s:
            cur = int(pred[s, cur])
            nodes.append(mem[cur])
        nodes.reverse()
        return nodes

    def _transit_path(self, src_t: int, dst_t: int) -> List[int]:
        transit = self._transit
        pred = self._tt_pred.get(src_t)
        if pred is None:
            _, pred = dijkstra(
                self._core, directed=False, indices=src_t, return_predecessors=True
            )
            self._tt_pred[src_t] = pred
        nodes = [transit[dst_t]]
        cur = dst_t
        while cur != src_t:
            cur = int(pred[cur])
            nodes.append(transit[cur])
        nodes.reverse()
        return nodes

    def path(self, src: int, dst: int) -> List[int]:
        """Node sequence of the shortest path, inclusive of endpoints."""
        if src == dst:
            return [src]
        topo = self.topology
        src_stub = topo.kind[src] is NodeKind.STUB
        dst_stub = topo.kind[dst] is NodeKind.STUB
        if src_stub and dst_stub and topo.domain[src] == topo.domain[dst]:
            return self._intra_path(topo.domain[src], src, dst)
        head: List[int] = []
        if src_stub:
            d = topo.domain[src]
            head = self._intra_path(d, src, self._gateway[d][0])
        tail: List[int] = []
        if dst_stub:
            e = topo.domain[dst]
            tail = self._intra_path(e, self._gateway[e][0], dst)
        core = self._transit_path(self._tindex[src], self._tindex[dst])
        return head + core + tail

    def path_edges(self, src: int, dst: int) -> List[Tuple[int, int]]:
        """Edges of the shortest path as sorted (u, v) pairs."""
        nodes = self.path(src, dst)
        return [tuple(sorted((a, b))) for a, b in zip(nodes, nodes[1:])]  # type: ignore[misc]

    def hop_count(self, src: int, dst: int) -> int:
        """Number of physical links on the path."""
        return len(self.path(src, dst)) - 1


def make_router(
    topology: PhysicalTopology, dense_limit: Optional[int] = None
):
    """Pick the routing implementation for a topology's size.

    Dense :class:`Router` (exact, one matrix view per row) up to
    ``dense_limit`` hosts; :class:`HierRouter` beyond.  The default
    limit keeps every existing experiment scale -- and therefore all
    golden determinism baselines -- on the dense implementation.
    """
    limit = DENSE_ROUTER_LIMIT if dense_limit is None else dense_limit
    if topology.n <= limit:
        return Router(topology)
    return HierRouter(topology)
