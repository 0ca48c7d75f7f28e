"""Tests for the TraceBus -> MetricsRegistry bridge.

Synthetic-event tests pin the category -> instrument mapping; the
integration test attaches a bridge to a real simulated system and
checks the run populates the same catalogue a live node serves.
"""

from __future__ import annotations

import pytest

from repro.obs import MEMBERSHIP_CATEGORIES, MetricsRegistry, TraceBridge
from repro.sim import TraceBus

from .conftest import build_system


@pytest.fixture
def bus():
    return TraceBus()


@pytest.fixture
def reg():
    return MetricsRegistry()


class TestMapping:
    def test_transport_send_counts_tx_frames_by_type(self, bus, reg):
        TraceBridge(bus, reg)
        bus.publish(1.0, "transport.send", src=1, dst=2, kind="LookupRequest")
        bus.publish(2.0, "transport.send", src=1, dst=2, kind="LookupRequest")
        bus.publish(3.0, "transport.send", src=2, dst=3, kind="Hello")
        fam = reg.get("repro_frames_total")
        assert fam.labels("tx", "LookupRequest").value == 2.0
        assert fam.labels("tx", "Hello").value == 1.0

    def test_lookup_done_feeds_status_and_histograms(self, bus, reg):
        TraceBridge(bus, reg)
        bus.publish(
            5.0, "lookup.done", query_id=1, span=9, hops=3, contacts=4, latency=120.0
        )
        assert reg.get("repro_lookups_total").labels("success").value == 1.0
        assert reg.get("repro_lookup_hops").labels().count == 1
        assert reg.get("repro_lookup_hops").labels().sum == 3.0
        assert reg.get("repro_lookup_contacts").labels().sum == 4.0
        assert reg.get("repro_lookup_latency_ms").labels().sum == 120.0

    def test_lookup_failed_counts_failure(self, bus, reg):
        TraceBridge(bus, reg)
        bus.publish(5.0, "lookup.failed", query_id=1, key="k")
        assert reg.get("repro_lookups_total").labels("failure").value == 1.0

    def test_hop_events_by_kind(self, bus, reg):
        TraceBridge(bus, reg)
        for kind in ("ring", "ring", "flood", "walk", "bt"):
            bus.publish(1.0, "lookup.hop", span=1, query_id=1, hop=1, kind=kind)
        fam = reg.get("repro_lookup_hop_events_total")
        assert fam.labels("ring").value == 2.0
        assert fam.labels("flood").value == 1.0
        assert fam.labels("walk").value == 1.0
        assert fam.labels("bt").value == 1.0

    def test_fanout_and_stored(self, bus, reg):
        TraceBridge(bus, reg)
        bus.publish(1.0, "flood.fanout", query_id=1, span=1, fanout=3)
        bus.publish(2.0, "data.stored", key="k")
        assert reg.get("repro_flood_fanout").labels().sum == 3.0
        assert reg.get("repro_items_stored_total").labels().value == 1.0

    def test_membership_categories_fold_into_one_counter(self, bus, reg):
        TraceBridge(bus, reg)
        for cat in MEMBERSHIP_CATEGORIES:
            bus.publish(1.0, cat)
        fam = reg.get("repro_peer_events_total")
        for cat in MEMBERSHIP_CATEGORIES:
            assert fam.labels(cat).value == 1.0


class TestLifecycle:
    def test_attach_makes_bus_want_bridged_categories(self, bus, reg):
        assert not bus.wants("lookup.done")
        bridge = TraceBridge(bus, reg)
        assert bus.wants("lookup.done")
        assert bus.wants("transport.send")
        bridge.detach()
        assert not bus.wants("lookup.done")
        assert not bus.wanted  # no-listener fast path restored

    def test_detach_stops_counting(self, bus, reg):
        bridge = TraceBridge(bus, reg)
        bus.publish(1.0, "data.stored")
        bridge.detach()
        bus.publish(2.0, "data.stored")
        assert reg.get("repro_items_stored_total").labels().value == 1.0

    def test_two_bridges_one_registry_is_allowed(self, reg):
        # Idempotent declaration: e.g. live transport + bridge share names.
        b1 = TraceBridge(TraceBus(), reg)
        b2 = TraceBridge(TraceBus(), reg)
        b1.bus.publish(1.0, "data.stored")
        b2.bus.publish(1.0, "data.stored")
        assert reg.get("repro_items_stored_total").labels().value == 2.0


class TestSimIntegration:
    def test_simulated_run_populates_live_catalogue(self):
        system = build_system(p_s=0.5, n_peers=20, heartbeats_enabled=False)
        reg = MetricsRegistry()
        bridge = TraceBridge(system.trace, reg)

        peers = [p.address for p in system.alive_peers()]
        system.populate(
            [(peers[i % len(peers)], f"key-{i}", i) for i in range(30)]
        )
        system.run_lookups(
            [(peers[(i + 7) % len(peers)], f"key-{i}") for i in range(30)]
        )
        bridge.detach()

        assert reg.get("repro_lookups_total").labels("success").value == 30.0
        hops = reg.get("repro_lookup_hops").labels()
        assert hops.count == 30
        assert reg.get("repro_lookup_contacts").labels().count == 30
        assert reg.get("repro_lookup_latency_ms").labels().sum > 0
        assert reg.get("repro_items_stored_total").labels().value >= 30.0
        assert reg.get("repro_frames_total").labels(
            "tx", "LookupRequest"
        ).value > 0
        # Remote lookups actually travelled: some hop events were traced
        # and the hop histogram has mass above zero hops.
        hop_events = reg.get("repro_lookup_hop_events_total")
        total_hop_events = sum(
            child.value for _, child in hop_events.children()
        )
        assert total_hop_events > 0
        assert hops.sum > 0
