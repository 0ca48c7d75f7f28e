"""Shortest-path routing over the physical topology.

Overlay links are logical: each corresponds to the physical shortest
path between the hosts of the two peers.  :class:`Router` gives its
propagation delay (``latency``, ``latency_row``) and its node sequence
(``path``, read only by link-stress accounting).  ``row[dst]`` is a plain
``float`` holding the very IEEE double the tables give, so delays -- and
therefore event ordering -- do not depend on how a row is read.  scipy
is imported only past :data:`TABLE_LIMIT` hosts and by ``path``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .topology import NodeKind, PhysicalTopology

__all__ = ["Router", "HierRouter", "make_router", "TABLE_LIMIT"]

# Most hosts for the numpy-solved n x n table (128 MB at the limit).
TABLE_LIMIT = 4096

# Most float64 cells one numpy step of a solve or a table fill holds (8 MB).
_STEP_CELLS = 1 << 20

# Most nodes per block-diagonal stub-domain graph in one scipy call:
# ~64 domains of 8, whose dense 512 x 512 result is 2 MB.
_BLOCK_NODES = 512


def _row_view(matrix: np.ndarray, i: int) -> memoryview:
    """Row ``i`` of a C-contiguous float64 matrix as a flat, read-only view.

    Slicing one flat ``memoryview`` costs one object (~200 B) and no
    copy; ``memoryview(matrix[i])`` would add an ndarray view (~500 B).
    Read-only because a write would land in the router's table.
    """
    k = matrix.shape[1]
    flat = memoryview(matrix).toreadonly().cast("B").cast("d")
    return flat[i * k : (i + 1) * k]


def _columns(edges: Sequence[Tuple[int, int, int, float]]):
    """``(graph, a, b, w)`` edge tuples as three index arrays and a weight array."""
    g, a, b = (np.array([e[i] for e in edges], dtype=np.intp) for i in range(3))
    return g, a, b, np.array([e[3] for e in edges], dtype=np.float64)


def _all_pairs(
    m: int, k: int, edges: Sequence[Tuple[int, int, int, float]]
) -> np.ndarray:
    """All-pairs shortest-path lengths of ``m`` graphs of ``k`` nodes each.

    ``edges`` holds each undirected edge once as ``(graph, a, b, w)``
    with local node numbers, sorted by graph; the result is
    ``(m, k, k)``, ``inf`` where no path exists.  Bellman-Ford from
    every source at once: each sweep extends every known distance by one
    edge, ``fl(d(a) + w)``, and keeps the least, until a sweep changes
    nothing.  The fixed point is the least left-associated sum over all
    walks -- the number scipy's ``dijkstra`` settles too, so the two
    agree bit for bit (:func:`_scipy_all_pairs`).
    """
    dist = np.full((m, k, k), np.inf)
    dist[:, np.arange(k), np.arange(k)] = 0.0
    if not edges:
        return dist
    g, a, b, w = _columns(edges)
    g, a, b, w = np.r_[g, g], np.r_[a, b], np.r_[b, a], np.r_[w, w]
    order = np.lexsort((b, g))  # group the relaxations by target node
    g, a, b, w = g[order], a[order], b[order], w[order][:, None]
    key = g * k + b
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    kg, kb = g[starts], b[starts]
    step = max(1, _STEP_CELLS // len(w))
    for lo in range(0, k, step):  # sources a slab at a time
        rows = dist[:, lo : lo + step]
        while True:
            reach = np.minimum.reduceat(rows[g, :, a] + w, starts)
            known = rows[kg, :, kb]
            if not (reach < known).any():
                break
            rows[kg, :, kb] = np.minimum(known, reach)
    return dist


def _scipy_all_pairs(
    m: int, k: int, edges: Sequence[Tuple[int, int, int, float]]
) -> List[np.ndarray]:
    """:func:`_all_pairs` by scipy's ``dijkstra``, the graphs joined into
    one block-diagonal graph of up to :data:`_BLOCK_NODES` nodes per
    call: no path leaves a graph, so each diagonal block is its table."""
    from scipy.sparse import csr_matrix

    g, a, b, w = _columns(edges)
    per = max(1, _BLOCK_NODES // k)
    out: List[np.ndarray] = []
    for lo in range(0, m, per):
        n = min(per, m - lo)
        i, j = np.searchsorted(g, (lo, lo + n))
        u, v = (g[i:j] - lo) * k + a[i:j], (g[i:j] - lo) * k + b[i:j]
        graph = csr_matrix((np.r_[w[i:j], w[i:j]], (np.r_[u, v], np.r_[v, u])), shape=(n * k,) * 2)
        block = _dijkstra(graph)
        # A lone graph's table is the whole block: kept, not copied.
        out.extend(
            np.ascontiguousarray(block[x * k : (x + 1) * k, x * k : (x + 1) * k])
            for x in range(n)
        )
    return out


def _undirected(
    edges: Iterable[Tuple[int, int, float]], index: Dict[int, int], k: int
):
    """Symmetric ``k x k`` scipy CSR of ``edges``, nodes renumbered by ``index``."""
    from scipy.sparse import csr_matrix

    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    for u, v, lat in edges:
        a, b = index[u], index[v]
        rows.extend((a, b))
        cols.extend((b, a))
        vals.extend((lat, lat))
    return csr_matrix((vals, (rows, cols)), shape=(k, k))


def _dijkstra(graph, **kwargs):
    from scipy.sparse.csgraph import dijkstra

    return dijkstra(graph, directed=False, **kwargs)


class _HierRow:
    """Latency row of a source host above :data:`TABLE_LIMIT`.

    Quacks like the table-row view -- ``row[dst]`` is a plain ``float``
    -- without materializing n doubles per source.  It holds views, not
    copies: the source's stub domain index (shared by every member) and
    that domain's intra-distance row for same-domain destinations, and
    the transit row of the source's attachment point for everything
    else, which decomposes over the single gateway edge of each stub
    domain (see :class:`Router`).
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


class Router:
    """Routing table for a transit-stub :class:`PhysicalTopology`.

    By construction (:func:`~repro.net.topology.generate_transit_stub`)
    every stub domain attaches to the backbone through exactly *one*
    gateway edge, so any path leaving a stub domain crosses that edge,
    and any excursion from the transit core into a stub domain is a
    detour.  Shortest paths therefore decompose exactly:

    ``lat(u, v) = d_D(u, g_D) + w_D  +  T(t_D, t_E)  +  w_E + d_E(g_E, v)``

    where ``d_X`` is the all-pairs distance *inside* stub domain ``X``,
    ``g_X``/``w_X`` its gateway node and edge weight, and ``T`` the
    all-pairs distance over the transit-only subgraph (a topology of
    transit nodes only is all core).  The sum is formed as
    ``(to_transit[u] + T) + to_transit[v]``, ``to_transit`` being the
    exact ``d_X(., g_X) + w_X`` (0.0 on transit nodes).  Two storage
    forms, chosen by ``n <= TABLE_LIMIT``:

    * **table** -- numpy solves the core and the stub domains (batched
      by domain size) and one n x n float64 table holds the sums, with
      intra-domain blocks overwritten; a row is a zero-copy view;
    * **decomposed** -- O(n_t^2 + sum |D|^2) memory instead of O(n^2)
      (80 GB at 10^5 hosts): scipy solves the core and the domains,
      :data:`_BLOCK_NODES` nodes per call, and a :class:`_HierRow`
      sums on read.

    Both solves give the same doubles, so the forms agree bit for bit.
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
                        "routing requires the single-gateway transit-stub form"
                    )
                gateway[d] = (stub, lat)
            else:
                if domain[u] != domain[v]:  # pragma: no cover - generator invariant
                    raise ValueError("stub edge crosses domains")
                dom_edges.setdefault(domain[u], []).append((u, v, lat))
        # Members in node order; intra-domain all-pairs per domain.
        members: Dict[int, List[int]] = {}
        for i in range(n):
            if kind[i] is NodeKind.STUB:
                members.setdefault(domain[i], []).append(i)
        for d in members:
            if d not in gateway:
                raise ValueError(
                    f"stub domain {d} has no gateway edge, so it is not connected"
                )
        self._core_edges = core_edges
        self._core = None  # scipy CSR of the core, built by the first path()
        self._tt_pred: Dict[int, np.ndarray] = {}  # per source, on demand
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
        self._tindex = [t_of[attach[i]] for i in range(n)]
        self._to_transit = [0.0] * n

        table = n <= TABLE_LIMIT
        solve = _all_pairs if table else _scipy_all_pairs
        tt_dist = solve(1, n_t, [(0, t_of[u], t_of[v], lat) for u, v, lat in core_edges])[0]
        if np.isinf(tt_dist).any():
            raise ValueError("transit core is not connected")
        self._tt = tt_dist
        # Stub domains, one batch per domain size.
        by_size: Dict[int, List[int]] = {}
        for d, mem in members.items():
            by_size.setdefault(len(mem), []).append(d)
        for k, batch in by_size.items():
            edges = []
            for g, d in enumerate(batch):
                idx = self._dom_index[d]
                edges.extend((g, idx[u], idx[v], lat) for u, v, lat in dom_edges.get(d, ()))
            for d, sub in zip(batch, solve(len(batch), k, edges)):
                if np.isinf(sub).any():
                    raise ValueError(f"stub domain {d} is not internally connected")
                self._intra[d] = sub
                gate, w = gateway[d]
                grow = sub[self._dom_index[d][gate]].tolist()
                for node, gd in zip(members[d], grow):
                    self._to_transit[node] = gd + w
        self._table = self._fill() if table else None

    def _fill(self) -> np.ndarray:
        """The n x n table: entry for entry the double a ``_HierRow`` sums.

        Filled a slab of rows at a time, so no n x n temporary appears.
        """
        n = self.n
        tindex = np.array(self._tindex)
        to_transit = np.array(self._to_transit)
        table = np.empty((n, n))
        step = max(1, _STEP_CELLS // n)
        for lo in range(0, n, step):
            rows = table[lo : lo + step]
            np.take(self._tt[tindex[lo : lo + step]], tindex, axis=1, out=rows, mode="clip")
            rows += to_transit[lo : lo + step, None]
            rows += to_transit
        for d, mem in self._members.items():
            table[np.ix_(mem, mem)] = self._intra[d]
        return table

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.topology.n

    def latency_row(self, src: int):
        """Row ``src``: ``row[dst]`` is ``latency(src, dst)`` as a ``float``.

        A zero-copy view of the table (C-level indexing) up to
        :data:`TABLE_LIMIT` hosts, a :class:`_HierRow` of views above:
        the bulk-delay primitive behind :meth:`Transport.send_many`,
        which caches one row per source host.
        """
        if self._table is not None:
            return _row_view(self._table, src)
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
        if self._table is not None:
            return self._table.item(src, dst)
        return self.latency_row(src)[dst]

    def min_edge_latency(self) -> float:
        """Cheapest physical link (ms): a lower bound on any one-hop
        propagation delay, used as the conservative-sync lookahead."""
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
            _, pred = _dijkstra(graph, return_predecessors=True)
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
            if self._core is None:
                t_of = {node: i for i, node in enumerate(transit)}
                self._core = _undirected(self._core_edges, t_of, len(transit))
            _, pred = _dijkstra(self._core, indices=src_t, return_predecessors=True)
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


# The name the ledger's tracer and older callers resolve.
HierRouter = Router


def make_router(topology: PhysicalTopology) -> Router:
    """The router for ``topology``: the name ``HybridSystem`` calls."""
    return Router(topology)
