"""Smoke + shape tests for the experiment drivers.

Each paper table/figure driver runs at a tiny scale here, and once more
at ``Scale.quick()`` for the shapes only that size shows; the
assertions check the *shapes* the paper reports, not absolute numbers
(those live in EXPERIMENTS.md at larger scale).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import Scale
from repro.experiments.common import run_cell
from repro.core import HybridConfig

TINY = Scale(n_peers=60, n_keys=180, n_lookups=180, seed=1)


class TestCommon:
    def test_run_cell_bundle(self):
        cell = run_cell(HybridConfig(p_s=0.5), TINY)
        assert cell.failure_ratio == 0.0
        assert cell.successes == 180
        assert cell.n_t_peers + cell.n_s_peers == 60

    def test_scales(self):
        assert Scale.paper().n_peers == 1000
        assert Scale.quick().n_peers < Scale.medium().n_peers
        assert Scale.quick().with_seed(9).seed == 9


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import fig3_analysis

        return fig3_analysis.run(n_peers=1000, points=99)

    def test_shapes(self, result):
        # 3a: optimum in the 0.6-0.9 band and below the pure-structured
        # endpoint, larger delta never worse there.
        for delta in (2, 3, 4, 5):
            assert 0.6 <= result.optimal_ps(delta) <= 0.9
            assert result.join[delta].argmin()[1] < result.join[delta].hops[0]
        j2, j5 = result.join[2], result.join[5]
        assert j5.argmin()[1] <= j2.argmin()[1]
        # 3b: decreasing overall.
        for c in result.lookup.values():
            assert c.hops[0] >= c.hops[-1]

    def test_3b_flat_below_half_then_larger_delta_lower(self, result):
        low = [c.hops[c.p_s < 0.5] for c in result.lookup.values()]
        for a, b in zip(low, low[1:]):
            assert np.allclose(a, b)
        assert (result.lookup[5].hops <= result.lookup[2].hops + 1e-9).all()

    def test_main_renders(self):
        from repro.experiments import fig3_analysis

        out = fig3_analysis.main(points=6)
        assert "Fig. 3a" in out and "Fig. 3b" in out


class TestFig4:
    def test_direct_concentrates_spread_flattens(self):
        from repro.experiments import fig4_distribution

        cells = fig4_distribution.run(
            Scale(n_peers=80, n_keys=0, n_lookups=0, seed=2),
            ps_values=(0.9,),
            items_per_peer=10,
        )
        direct = cells[("direct", 0.9)].summary
        spread = cells[("spread", 0.9)].summary
        assert direct.gini > spread.gini
        assert direct.max > spread.max
        assert direct.fraction_zero > spread.fraction_zero
        assert direct.total_items == spread.total_items  # conservation

    def test_schemes_agree_at_ps_zero(self):
        from repro.experiments import fig4_distribution

        cells = fig4_distribution.run(
            Scale(n_peers=40, n_keys=0, n_lookups=0, seed=2),
            ps_values=(0.0,),
            items_per_peer=8,
        )
        d = cells[("direct", 0.0)].summary
        s = cells[("spread", 0.0)].summary
        # With no s-peers, spreading has nowhere to spread.
        assert d.gini == pytest.approx(s.gini)

    def test_direct_imbalance_grows_with_ps(self):
        """Fig. 4a -> 4c: scheme 1 piles more onto t-peers as p_s grows."""
        from repro.experiments import fig4_distribution

        cells = fig4_distribution.run(Scale.quick(seed=2), ps_values=(0.0, 0.9))
        gini = {ps: cells[("direct", ps)].summary.gini for ps in (0.0, 0.9)}
        assert gini[0.9] > gini[0.0]


class TestFig5:
    def test_5a_shapes(self):
        from repro.experiments import fig5_failure

        result = fig5_failure.run_5a(
            Scale(n_peers=80, n_keys=240, n_lookups=240, seed=3),
            ttls=(1, 4),
            ps_values=(0.3, 0.9),
            delta=2,
        )
        # ~0 below p_s = 0.5 regardless of TTL.
        assert result.failure(1, 0.3) < 0.02
        assert result.failure(4, 0.3) < 0.02
        # Rising with p_s at small TTL; falling with TTL.
        assert result.failure(1, 0.9) > result.failure(1, 0.3)
        assert result.failure(4, 0.9) <= result.failure(1, 0.9)

    def test_5b_failure_tracks_crash_fraction(self):
        from repro.experiments import fig5_failure

        result = fig5_failure.run_5b(
            Scale(n_peers=60, n_keys=180, n_lookups=180, seed=4),
            fractions=(0.0, 0.2),
            ps_values=(0.6,),
        )
        assert result.failure(0.6, 0.0) == pytest.approx(0.0, abs=0.02)
        assert 0.05 < result.failure(0.6, 0.2) < 0.4

    def test_5a_structured_accuracy_and_ttl4_band(self):
        from repro.experiments import fig5_failure

        result = fig5_failure.run_5a(Scale.quick(seed=3), ps_values=(0, 0.3, 0.5, 0.9))
        # Structured-grade accuracy below p_s = 0.5 for every TTL.
        for ttl in (1, 2, 4):
            for ps in (0.0, 0.3):
                assert result.failure(ttl, ps) < 0.02
        assert result.failure(1, 0.9) > result.failure(1, 0.5)
        assert result.failure(4, 0.9) < 0.15  # "4 percent if TTL = 4" band

    def test_5b_linear_in_crash_flat_in_ps(self):
        from repro.experiments import fig5_failure

        ps_values = (0.3, 0.6, 0.9)
        result = fig5_failure.run_5b(
            Scale.quick(seed=4), fractions=(0.0, 0.1, 0.2, 0.3),
            ps_values=ps_values,
        )
        for ps in ps_values:
            # ~Linear in the crash fraction: failure tracks the loss.
            assert result.failure(ps, 0.0) < 0.03
            assert result.failure(ps, 0.3) > result.failure(ps, 0.1)
            assert abs(result.failure(ps, 0.2) - 0.2) < 0.12
        # ~Flat in p_s at a fixed crash fraction.
        at_02 = [result.failure(ps, 0.2) for ps in ps_values]
        assert max(at_02) - min(at_02) < 0.15


class TestTable2:
    def test_connum_decreasing_in_ps(self):
        from repro.experiments import table2_connum

        result = table2_connum.run(
            Scale(n_peers=60, n_keys=180, n_lookups=180, seed=5),
            ps_values=(0.0, 0.5, 0.9),
            ttls=(1, 4),
        )
        assert result.connum(0.0, 4) > result.connum(0.5, 4) > result.connum(0.9, 4)
        # TTL irrelevant at p_s = 0 (no flooding at all).
        assert result.connum(0.0, 1) == result.connum(0.0, 4)
        # TTL grows connum only at high p_s.
        assert result.connum(0.9, 4) >= result.connum(0.9, 1)

    def test_connum_strictly_decreasing_with_tenfold_headline(self):
        from repro.experiments import table2_connum

        ps_values = (0.0, 0.2, 0.4, 0.6, 0.8, 0.9)
        result = table2_connum.run(Scale.quick(seed=5), ps_values=ps_values)
        for ttl in (1, 2, 4):
            series = [result.connum(ps, ttl) for ps in ps_values]
            assert all(a > b for a, b in zip(series, series[1:])), series
        # The paper's 10x headline: p_s = 0.9 is a small fraction of p_s = 0.
        assert result.connum(0.9, 4) < 0.35 * result.connum(0.0, 4)


@pytest.mark.slow
class TestFig6:
    def test_6a_heterogeneity_helps_at_high_ps(self):
        from repro.experiments import fig6_latency

        result = fig6_latency.run_6a(
            Scale(n_peers=60, n_keys=180, n_lookups=180, seed=21),
            ps_values=(0.7,),
        )
        assert result.latency("hetero", 0.7) < result.latency("base", 0.7)

    def test_6b_binning_helps_at_high_ps(self):
        """Topology awareness shows once a meaningful share of each
        lookup's path lies inside s-networks; average over seeds since
        the per-run effect (~5%) is close to workload noise."""
        from repro.experiments import fig6_latency

        base, binned = [], []
        for seed in (17, 18):
            result = fig6_latency.run_6b(
                Scale(n_peers=80, n_keys=240, n_lookups=240, seed=seed),
                ps_values=(0.7,),
                landmark_counts=(8,),
            )
            base.append(result.latency("base", 0.7))
            binned.append(result.latency("bin8", 0.7))
        assert sum(binned) < sum(base)

    def test_6a_latency_falls_and_heterogeneity_helps_at_0_4(self):
        from repro.experiments import fig6_latency

        result = fig6_latency.run_6a(Scale.quick(seed=21), ps_values=(0.0, 0.4, 0.9))
        # Fewer ring hops as p_s grows.
        assert result.latency("base", 0.9) < result.latency("base", 0.0)
        # The paper's sweet spot starts at p_s = 0.4.
        assert result.latency("hetero", 0.4) < result.latency("base", 0.4)

    def test_6b_binning_helps_high_ps_and_coincides_at_zero(self):
        from repro.experiments import fig6_latency

        result = fig6_latency.run_6b(
            Scale.quick(seed=17), ps_values=(0.0, 0.7, 0.9),
            landmark_counts=(8,),
        )

        def mid_high(variant):
            return result.latency(variant, 0.7) + result.latency(variant, 0.9)

        assert mid_high("bin8") < mid_high("base")
        # No s-networks to cluster at p_s = 0: same protocol path.
        base0 = result.latency("base", 0.0)
        assert abs(result.latency("bin8", 0.0) - base0) < 0.25 * base0


class TestAblations:
    """DESIGN.md §5 ablations not held by test_dataplane.py / test_bypass.py."""

    def test_finger_routing_cuts_latency(self):
        linear, finger = (
            run_cell(HybridConfig(p_s=0.3, ring_routing=r), Scale.quick(seed=32))
            for r in ("linear", "finger")
        )
        assert finger.failure_ratio == linear.failure_ratio == 0.0
        assert finger.mean_latency < linear.mean_latency
