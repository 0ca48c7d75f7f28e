"""Tests for the extension experiments (maintenance cost, comparison,
replication, swarm)."""

from __future__ import annotations

import functools

import pytest

from repro.experiments import ext_comparison, ext_maintenance, ext_replication, ext_swarm


class TestMaintenance:
    def test_cost_falls_from_structured_endpoint(self):
        cells = ext_maintenance.run(
            n_peers=60, churn_events=20, ps_values=(0.0, 0.6), seed=1
        )
        assert cells[0.0].per_event > cells[0.6].per_event
        assert cells[0.0].joins == cells[0.0].leaves == 10

    def test_main_renders(self):
        out = ext_maintenance.main(n_peers=50, churn_events=10, ps_values=(0.0, 0.8))
        assert "msgs/event" in out

    def test_events_counted(self):
        cells = ext_maintenance.run(
            n_peers=40, churn_events=8, ps_values=(0.5,), seed=2
        )
        cell = cells[0.5]
        assert cell.messages > 0
        assert cell.per_event == pytest.approx(cell.messages / 8)

    def test_cost_bottoms_out_at_mid_to_high_ps(self):
        """Section 3.1 at Scale.quick() size: a U-curve, not a slope."""
        cells = ext_maintenance.run(n_peers=120, churn_events=30)
        per_event = {ps: cell.per_event for ps, cell in cells.items()}
        assert per_event[0.0] > 2 * per_event[0.6]
        assert min(per_event, key=per_event.get) >= 0.4


@functools.lru_cache(maxsize=None)
def _quick_scores(seed):
    return ext_comparison.run(n_peers=120, n_keys=400, n_lookups=400, seed=seed)


class TestComparison:
    @pytest.fixture(scope="class")
    def scores(self):
        return ext_comparison.run(
            n_peers=60, n_keys=150, n_lookups=150, churn=10, seed=1
        )

    def test_three_systems_scored(self, scores):
        names = sorted(scores)
        assert names[0] == "chord"
        assert any(n.startswith("gnutella") for n in names)
        assert any(n.startswith("hybrid") for n in names)

    def test_chord_is_accurate_but_costly_to_maintain(self, scores):
        chord = scores["chord"]
        hybrid = next(s for n, s in scores.items() if n.startswith("hybrid"))
        assert chord.failure_ratio == 0.0
        assert chord.maintenance_per_event > hybrid.maintenance_per_event

    def test_gnutella_floods(self, scores):
        gnutella = next(s for n, s in scores.items() if n.startswith("gnutella"))
        hybrid = next(s for n, s in scores.items() if n.startswith("hybrid"))
        assert gnutella.contacts_per_lookup > hybrid.contacts_per_lookup

    def test_hybrid_is_accurate(self, scores):
        hybrid = next(s for n, s in scores.items() if n.startswith("hybrid"))
        assert hybrid.failure_ratio <= 0.02

    def test_main_renders(self):
        out = ext_comparison.main(n_peers=50)
        assert "chord" in out and "hybrid" in out

    def test_hybrid_floods_and_maintains_at_a_fraction(self):
        """The paper's thesis at Scale.quick() size, at every paired seed."""
        for seed in (0, 1, 2):
            scores = _quick_scores(seed)
            chord = scores["chord"]
            gnutella = next(s for n, s in scores.items() if n.startswith("gnutella"))
            hybrid = next(s for n, s in scores.items() if n.startswith("hybrid"))
            assert hybrid.contacts_per_lookup < 0.25 * gnutella.contacts_per_lookup, seed
            assert hybrid.maintenance_per_event < 0.25 * chord.maintenance_per_event, seed

    @pytest.mark.parametrize(
        "seed, expected",
        [
            (0, ext_comparison.SystemScore("hybrid (p_s=0.7)", 0.0, 20.035, 4.3)),
            (1, ext_comparison.SystemScore("hybrid (p_s=0.7)", 0.0, 20.175, 5.4)),
        ],
    )
    def test_hybrid_row_is_pinned(self, seed, expected):
        """The hybrid row's floats, pinned to full precision: how the
        endpoint rows are built must not move them."""
        assert _quick_scores(seed)[expected.name] == expected


class TestReplication:
    def test_one_extra_copy_cuts_crash_loss(self):
        cells = ext_replication.run(
            n_peers=80, n_keys=240, n_lookups=240,
            factors=(1, 2), fractions=(0.2,),
        )
        assert cells[(2, 0.2)].failure_ratio < 0.5 * cells[(1, 0.2)].failure_ratio


class TestSwarm:
    def test_flash_crowd_load_leaves_the_publisher(self):
        """Section 5.5's one claim, at the quick CLI size (N = 60):
        every fetcher that lands a piece becomes a source for it, so the
        publisher serves less than the whole transfer -- and a smaller
        share the bigger the crowd -- with every piece hash-verified."""
        cells = ext_swarm.run(n_peers=60, seed=0)
        assert [cell.fetchers for cell in cells] == [4, 8, 16]
        shares = [cell.publisher_share for cell in cells]
        assert all(0.0 < share < 1.0 for share in shares)
        assert shares[0] > shares[1] > shares[2]
        assert all(cell.max_peer_tx < cell.naive_max_tx for cell in cells)
        assert [cell.integrity_failures for cell in cells] == [0, 0, 0]
