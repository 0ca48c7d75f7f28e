"""Unit tests for the transit-stub topology generator."""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.net import (
    LatencyRanges,
    NodeKind,
    TransitStubConfig,
    config_for_size,
    generate_transit_stub,
)


def _connected(n, edges) -> bool:
    adj = {i: [] for i in range(n)}
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        cur = stack.pop()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == n


class TestGeneration:
    def test_node_count_matches_config(self, rng):
        cfg = TransitStubConfig(
            transit_domains=2,
            transit_nodes_per_domain=3,
            stub_domains_per_transit_node=2,
            stub_nodes_per_domain=4,
        )
        topo = generate_transit_stub(cfg, rng)
        assert topo.n == cfg.total_nodes == 6 + 6 * 2 * 4

    def test_connected(self, rng):
        cfg = TransitStubConfig()
        topo = generate_transit_stub(cfg, rng)
        assert _connected(topo.n, topo.edges)

    def test_node_kinds(self, rng):
        cfg = TransitStubConfig(transit_domains=2, transit_nodes_per_domain=4)
        topo = generate_transit_stub(cfg, rng)
        assert len(topo.transit_nodes) == 8
        assert len(topo.stub_nodes) == topo.n - 8
        assert all(topo.kind[i] is NodeKind.TRANSIT for i in topo.transit_nodes)

    def test_stub_attachment_points_to_transit(self, rng):
        topo = generate_transit_stub(TransitStubConfig(), rng)
        for node in topo.stub_nodes:
            anchor = topo.transit_attachment[node]
            assert topo.kind[anchor] is NodeKind.TRANSIT

    def test_latency_class_separation(self, rng):
        """Intra-stub links must be cheaper than inter-transit links --
        the property the topology-awareness experiment relies on."""
        cfg = TransitStubConfig()
        topo = generate_transit_stub(cfg, rng)
        intra_stub = []
        backbone = []
        for u, v, lat in topo.edges:
            if (
                topo.kind[u] is NodeKind.STUB
                and topo.kind[v] is NodeKind.STUB
                and topo.domain[u] == topo.domain[v]
            ):
                intra_stub.append(lat)
            elif topo.kind[u] is NodeKind.TRANSIT and topo.kind[v] is NodeKind.TRANSIT:
                backbone.append(lat)
        assert intra_stub and backbone
        assert max(intra_stub) <= cfg.latencies.intra_stub[1]
        assert min(backbone) >= cfg.latencies.intra_transit[0]

    def test_no_duplicate_edges(self, rng):
        topo = generate_transit_stub(TransitStubConfig(extra_edge_prob=0.8), rng)
        pairs = [(u, v) for u, v, _ in topo.edges]
        assert len(pairs) == len(set(pairs))

    def test_deterministic_for_same_rng_state(self):
        a = generate_transit_stub(TransitStubConfig(), np.random.default_rng(5))
        b = generate_transit_stub(TransitStubConfig(), np.random.default_rng(5))
        assert a.edges == b.edges

    def test_single_domain(self, rng):
        cfg = TransitStubConfig(transit_domains=1, transit_nodes_per_domain=2)
        topo = generate_transit_stub(cfg, rng)
        assert _connected(topo.n, topo.edges)


class TestValidation:
    def test_bad_latency_range(self):
        with pytest.raises(ValueError):
            TransitStubConfig(
                latencies=LatencyRanges(intra_stub=(5.0, 1.0))
            ).validate()

    def test_bad_edge_prob(self):
        with pytest.raises(ValueError):
            TransitStubConfig(extra_edge_prob=1.5).validate()

    def test_zero_transit_domains(self):
        with pytest.raises(ValueError):
            TransitStubConfig(transit_domains=0).validate()


class TestConfigForSize:
    @pytest.mark.parametrize("target", [10, 100, 500, 1001])
    def test_capacity_covers_target(self, target):
        cfg = config_for_size(target)
        assert cfg.total_nodes >= target

    def test_tiny_target_rejected(self):
        with pytest.raises(ValueError):
            config_for_size(1)


# Digest of every topology and of the generator state it leaves behind,
# taken before the generator's draws were vectorised: any change to the
# order or number of draws moves it.
STREAM_GOLDEN = "bb637c8cd92f5179"


def test_generator_stream_golden():
    h = hashlib.sha256()
    for target in (300, 1000, 25000):
        for prob in (0.0, 0.3, 1.0):
            cfg = dataclasses.replace(config_for_size(target), extra_edge_prob=prob)
            for seed in (0, 1):
                rng = np.random.default_rng(seed)
                topo = generate_transit_stub(cfg, rng)
                kinds = [k.value for k in topo.kind]
                h.update(repr((topo.n, topo.edges, kinds, topo.domain,
                               topo.transit_attachment)).encode())
                h.update(repr(rng.bit_generator.state).encode())
                h.update(repr((rng.random(), int(rng.integers(0, 5)))).encode())
    assert h.hexdigest()[:16] == STREAM_GOLDEN
