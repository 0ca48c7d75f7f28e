"""Random transit-stub physical topologies.

The paper evaluates on "random transit-stub network topologies generated
by GT-ITM software" with 1,000 nodes.  GT-ITM is a C program we cannot
ship, so this module implements the same structural model (Zegura,
Calvert & Bhattacharjee, "How to model an internetwork", INFOCOM '96):

* a small number of *transit domains* (backbone ASes), internally
  connected, with random edges between domains;
* each transit node anchors several *stub domains* (edge networks),
  each internally connected;
* link latencies drawn from ranges that make intra-stub links much
  cheaper than transit links, which is exactly the property the paper's
  topology-awareness experiment (Fig. 6b) exploits.

The generator is deterministic given an RNG and always yields a single
connected component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Tuple

import numpy as np

__all__ = [
    "NodeKind",
    "LatencyRanges",
    "TransitStubConfig",
    "PhysicalTopology",
    "generate_transit_stub",
    "config_for_size",
]


class NodeKind(Enum):
    """Role of a node in the transit-stub hierarchy."""

    TRANSIT = "transit"
    STUB = "stub"


@dataclass(frozen=True)
class LatencyRanges:
    """Per-link-class latency ranges, in milliseconds.

    Defaults follow the usual GT-ITM conventions: backbone links are an
    order of magnitude slower than LAN-ish stub links.
    """

    inter_transit: Tuple[float, float] = (30.0, 80.0)
    intra_transit: Tuple[float, float] = (10.0, 30.0)
    transit_stub: Tuple[float, float] = (5.0, 20.0)
    intra_stub: Tuple[float, float] = (1.0, 5.0)

    def validate(self) -> None:
        for name in ("inter_transit", "intra_transit", "transit_stub", "intra_stub"):
            lo, hi = getattr(self, name)
            if not (0 < lo <= hi):
                raise ValueError(f"bad latency range {name}={lo, hi}")


@dataclass(frozen=True)
class TransitStubConfig:
    """Shape parameters of the generated topology.

    Total node count is
    ``T*NT + T*NT*S*NS`` where ``T`` transit domains each hold ``NT``
    transit nodes, every transit node anchors ``S`` stub domains of
    ``NS`` nodes each.
    """

    transit_domains: int = 2
    transit_nodes_per_domain: int = 4
    stub_domains_per_transit_node: int = 3
    stub_nodes_per_domain: int = 8
    # Probability of an extra (redundancy) edge beyond the connecting
    # spanning tree inside each domain.
    extra_edge_prob: float = 0.3
    latencies: LatencyRanges = field(default_factory=LatencyRanges)

    def validate(self) -> None:
        if self.transit_domains < 1:
            raise ValueError("need at least one transit domain")
        if self.transit_nodes_per_domain < 1:
            raise ValueError("need at least one transit node per domain")
        if self.stub_domains_per_transit_node < 0:
            raise ValueError("stub_domains_per_transit_node must be >= 0")
        if self.stub_nodes_per_domain < 1 and self.stub_domains_per_transit_node > 0:
            raise ValueError("stub domains must be non-empty")
        if not (0.0 <= self.extra_edge_prob <= 1.0):
            raise ValueError("extra_edge_prob must be in [0, 1]")
        self.latencies.validate()

    @property
    def total_nodes(self) -> int:
        transit = self.transit_domains * self.transit_nodes_per_domain
        return transit + transit * self.stub_domains_per_transit_node * self.stub_nodes_per_domain


@dataclass
class PhysicalTopology:
    """A generated physical network.

    Attributes
    ----------
    n:
        Number of nodes; nodes are ``0..n-1``.
    edges:
        ``(u, v, latency_ms)`` with ``u < v``; each undirected link once.
    kind:
        Per-node :class:`NodeKind`.
    domain:
        Per-node domain id; stub domains and transit domains share one
        id namespace, so equal ids mean "same physical neighbourhood".
    transit_attachment:
        For stub nodes, the transit node their stub domain hangs off;
        for transit nodes, the node itself.
    """

    n: int
    edges: List[Tuple[int, int, float]]
    kind: List[NodeKind]
    domain: List[int]
    transit_attachment: List[int]

    def __post_init__(self) -> None:
        for u, v, lat in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"bad edge ({u}, {v}) for n={self.n}")
            if lat <= 0:
                raise ValueError(f"non-positive latency on edge ({u}, {v})")

    @property
    def transit_nodes(self) -> List[int]:
        return [i for i in range(self.n) if self.kind[i] is NodeKind.TRANSIT]

    @property
    def stub_nodes(self) -> List[int]:
        return [i for i in range(self.n) if self.kind[i] is NodeKind.STUB]

    def degree(self, node: int) -> int:
        return sum(1 for u, v, _ in self.edges if u == node or v == node)


def _connected_random_graph(
    nodes: List[int],
    rng: np.random.Generator,
    extra_edge_prob: float,
    latency_range: Tuple[float, float],
) -> List[Tuple[int, int, float]]:
    """Random connected graph on ``nodes``: random tree + extra edges."""
    edges: List[Tuple[int, int, float]] = []
    lo, hi = latency_range

    # Random spanning tree via random attachment order.
    order = list(nodes)
    rng.shuffle(order)
    for i in range(1, len(order)):
        parent = order[int(rng.integers(0, i))]
        a, b = sorted((parent, order[i]))
        edges.append((a, b, float(rng.uniform(lo, hi))))
    # Extra redundancy edges: every non-tree pair, in (i, j) order, draws
    # one double to decide and an accepted pair one more for its latency
    # (``uniform(lo, hi)`` is ``lo + (hi - lo) * random()``).  Draw the
    # most that can be needed in one call, consume it in that order, then
    # rewind and advance the generator by exactly what was consumed, so
    # the stream matches scalar draws (``advance`` would drop PCG64's
    # buffered 32-bit half, which the next bounded ``integers`` reads).
    if extra_edge_prob > 0 and len(order) > 2:
        tree = {(a, b) for a, b, _ in edges}
        candidates = [
            pair
            for i, u in enumerate(order)
            for v in order[i + 1:]
            if (pair := (u, v) if u < v else (v, u)) not in tree
        ]
        state = rng.bit_generator.state
        draws = rng.random(2 * len(candidates)).tolist()
        span = hi - lo
        used = 0
        for a, b in candidates:
            used += 1
            if draws[used - 1] < extra_edge_prob:
                edges.append((a, b, lo + span * draws[used]))
                used += 1
        rng.bit_generator.state = state
        rng.random(used)
    return edges


def _pick(seq: List[int], rng: np.random.Generator) -> int:
    """One uniform member of ``seq``: the draw ``int(rng.choice(seq))``
    makes, without its per-call array conversion."""
    return seq[int(rng.integers(0, len(seq)))]


def generate_transit_stub(
    config: TransitStubConfig,
    rng: np.random.Generator,
) -> PhysicalTopology:
    """Generate a transit-stub topology.

    The result is connected by construction: every domain is internally
    connected, every stub domain attaches to its transit node, and the
    transit domains form a connected ring of domains (plus random
    shortcut edges).
    """
    config.validate()
    kind: List[NodeKind] = []
    domain: List[int] = []
    transit_attachment: List[int] = []
    edges: List[Tuple[int, int, float]] = []

    next_node = 0
    next_domain = 0
    transit_domains: List[List[int]] = []

    # --- transit domains -------------------------------------------------
    for _ in range(config.transit_domains):
        members = list(range(next_node, next_node + config.transit_nodes_per_domain))
        next_node += len(members)
        for m in members:
            kind.append(NodeKind.TRANSIT)
            domain.append(next_domain)
            transit_attachment.append(m)
        edges.extend(
            _connected_random_graph(
                members, rng, config.extra_edge_prob, config.latencies.intra_transit
            )
        )
        transit_domains.append(members)
        next_domain += 1

    # Connect transit domains in a ring (guarantees backbone
    # connectivity) plus random shortcuts between random domain pairs.
    lo, hi = config.latencies.inter_transit
    ndom = len(transit_domains)
    if ndom > 1:
        for i in range(ndom):
            j = (i + 1) % ndom
            if ndom == 2 and i == 1:
                break  # avoid a duplicate link between the only two domains
            a = _pick(transit_domains[i], rng)
            b = _pick(transit_domains[j], rng)
            u, v = sorted((a, b))
            edges.append((u, v, float(rng.uniform(lo, hi))))
        for i in range(ndom):
            for j in range(i + 2, ndom):
                if rng.random() < config.extra_edge_prob:
                    a = _pick(transit_domains[i], rng)
                    b = _pick(transit_domains[j], rng)
                    u, v = sorted((a, b))
                    edges.append((u, v, float(rng.uniform(lo, hi))))

    # --- stub domains -----------------------------------------------------
    ts_lo, ts_hi = config.latencies.transit_stub
    for members in transit_domains:
        for t_node in members:
            for _ in range(config.stub_domains_per_transit_node):
                stub = list(range(next_node, next_node + config.stub_nodes_per_domain))
                next_node += len(stub)
                for s in stub:
                    kind.append(NodeKind.STUB)
                    domain.append(next_domain)
                    transit_attachment.append(t_node)
                edges.extend(
                    _connected_random_graph(
                        stub, rng, config.extra_edge_prob, config.latencies.intra_stub
                    )
                )
                gateway = _pick(stub, rng)
                u, v = sorted((t_node, gateway))
                edges.append((u, v, float(rng.uniform(ts_lo, ts_hi))))
                next_domain += 1

    # De-duplicate parallel edges that random shortcuts may have created,
    # keeping the lowest latency.
    best: Dict[Tuple[int, int], float] = {}
    for u, v, lat in edges:
        key = (u, v)
        if key not in best or lat < best[key]:
            best[key] = lat
    unique_edges = [(u, v, lat) for (u, v), lat in sorted(best.items())]

    return PhysicalTopology(
        n=next_node,
        edges=unique_edges,
        kind=kind,
        domain=domain,
        transit_attachment=transit_attachment,
    )


def config_for_size(
    target_nodes: int,
    stub_nodes_per_domain: int = 8,
    stub_domains_per_transit_node: int = 3,
    max_transit_nodes: int = 4096,
) -> TransitStubConfig:
    """Pick a configuration whose total size approximates ``target_nodes``.

    Used by experiment drivers that only care about "a transit-stub
    network of roughly N nodes" (the paper uses N = 1000).  The result's
    :attr:`TransitStubConfig.total_nodes` is >= ``target_nodes`` whenever
    possible so peer populations can always be placed.

    Past ~10^5 nodes the default shape would put tens of thousands of
    nodes in the transit core, whose all-pairs distance table is the
    quadratic term in :class:`~repro.net.routing.Router` memory and
    whose all-pairs Dijkstra (n_t runs over the core) dominates its
    build time.  When the core would exceed ``max_transit_nodes`` the
    stub domains grow instead -- their cost is the sum of squared
    *domain* sizes in memory and of per-domain all-pairs runs in time --
    leaving every paper-scale configuration (which stays far below the
    cap) byte-for-byte unchanged.
    """
    if target_nodes < 2:
        raise ValueError("target_nodes must be >= 2")
    per_transit = 1 + stub_domains_per_transit_node * stub_nodes_per_domain
    if -(-target_nodes // per_transit) > max_transit_nodes:
        need_per_transit = -(-target_nodes // max_transit_nodes)
        stub_nodes_per_domain = -(
            -(need_per_transit - 1) // stub_domains_per_transit_node
        )
        per_transit = 1 + stub_domains_per_transit_node * stub_nodes_per_domain
    total_transit = max(2, -(-target_nodes // per_transit))  # ceil division
    # Split transit nodes across domains of ~4.
    transit_domains = max(1, total_transit // 4)
    transit_per_domain = -(-total_transit // transit_domains)
    return TransitStubConfig(
        transit_domains=transit_domains,
        transit_nodes_per_domain=transit_per_domain,
        stub_domains_per_transit_node=stub_domains_per_transit_node,
        stub_nodes_per_domain=stub_nodes_per_domain,
    )
