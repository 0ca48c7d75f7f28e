"""Tests for the link-stress and sustained-churn extension experiments."""

from __future__ import annotations

import pytest

from repro.experiments import ext_churn, ext_stress


class TestLinkStress:
    @pytest.fixture(scope="class")
    def cells(self):
        return ext_stress.run(
            n_peers=60, n_keys=150, n_lookups=150, ps_values=(0.8,), seed=2
        )

    def test_both_variants_measured(self, cells):
        assert set(cells) == {(0.8, "base"), (0.8, "binned")}
        for cell in cells.values():
            assert cell.summary.total_transmissions > 0
            assert cell.transmissions_per_lookup > 0

    def test_binning_relieves_links_at_high_ps(self, cells):
        base = cells[(0.8, "base")].summary
        binned = cells[(0.8, "binned")].summary
        assert binned.total_transmissions < base.total_transmissions

    def test_main_renders(self):
        out = ext_stress.main(n_peers=50, ps_values=(0.8,))
        assert "hottest link" in out

    def test_binning_relieves_links_from_ps_0_7(self):
        """Section 5.2's motivation at Scale.quick() size."""
        cells = ext_stress.run(
            n_peers=120, n_keys=400, n_lookups=400, ps_values=(0.7, 0.9)
        )
        for p_s in (0.7, 0.9):
            base = cells[(p_s, "base")].summary
            binned = cells[(p_s, "binned")].summary
            assert binned.total_transmissions < base.total_transmissions


class TestSustainedChurn:
    def test_harsher_churn_more_failures(self):
        cells = ext_churn.run(
            n_peers=50,
            n_keys=120,
            n_lookups=120,
            lifetimes=(600_000.0, 90_000.0),
            seed=3,
        )
        gentle = cells[600_000.0]
        harsh = cells[90_000.0]
        assert harsh.departures > gentle.departures
        assert harsh.failure_ratio >= gentle.failure_ratio
        # The system keeps functioning under the harsh regime.
        assert harsh.failure_ratio < 0.6

    def test_graceful_only_churn_loses_nothing(self):
        """With crash_probability=0 every departure hands its data over:
        the failure ratio must stay ~zero regardless of churn rate."""
        cells = ext_churn.run(
            n_peers=50,
            n_keys=120,
            n_lookups=120,
            lifetimes=(120_000.0,),
            crash_probability=0.0,
            seed=4,
        )
        assert cells[120_000.0].failure_ratio < 0.05

    def test_main_renders(self):
        out = ext_churn.main(n_peers=40)
        assert "mean lifetime" in out

    def test_default_lifetimes_harshest_keeps_serving(self):
        cells = ext_churn.run(n_peers=60, n_keys=180, n_lookups=180)
        harshest = cells[min(cells)]  # shortest mean lifetime
        assert harshest.failure_ratio >= cells[max(cells)].failure_ratio
        # The harshest regime still serves the surviving majority.
        assert harshest.failure_ratio < 0.5
