"""Tests for metrics: distributions, report rendering, and the
QueryRegistry's aggregation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import QueryRegistry
from repro.metrics import (
    format_grid,
    format_series,
    format_table,
    gini,
    items_pdf,
    summarize_distribution,
)


class TestDistributions:
    def test_pdf_integrates_to_one(self):
        counts = np.array([0, 0, 5, 10, 20, 20, 3])
        centers, density = items_pdf(counts, n_bins=10)
        width = centers[1] - centers[0]
        assert (density * width).sum() == pytest.approx(1.0)

    def test_pdf_rejects_empty(self):
        with pytest.raises(ValueError):
            items_pdf(np.array([]))

    def test_gini_even_load_is_zero(self):
        assert gini(np.array([5, 5, 5, 5])) == pytest.approx(0.0)

    def test_gini_concentrated_load_near_one(self):
        counts = np.zeros(100)
        counts[0] = 1000
        assert gini(counts) > 0.9

    def test_gini_all_zero(self):
        assert gini(np.zeros(10)) == 0.0

    def test_summary_fields(self):
        counts = np.array([0, 0, 0, 10, 30])
        s = summarize_distribution(counts)
        assert s.n_peers == 5
        assert s.total_items == 40
        assert s.fraction_zero == pytest.approx(0.6)
        assert s.max == 30
        assert s.fraction_below_10 == pytest.approx(0.6)


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], [30, 4]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_series(self):
        out = format_series("x", [1, 2], {"y": [10, 20], "z": [30, 40]})
        assert "10" in out and "40" in out

    def test_format_grid_missing_cells(self):
        out = format_grid("r", ["a"], "c", ["x", "y"], {"a": {"x": 1}})
        assert "-" in out  # missing (a, y)


class TestQueryRegistry:
    def test_lifecycle(self):
        reg = QueryRegistry()
        rec = reg.start(origin=1, key="k", d_id=5, time=100.0, local=True)
        assert reg.unresolved == 1
        reg.contact(rec.query_id)
        reg.contact(rec.query_id, duplicate=True)
        assert reg.succeed(rec.query_id, 150.0, holder=9)
        assert reg.unresolved == 0
        assert rec.latency == pytest.approx(50.0)
        assert rec.contacts == 1 and rec.duplicate_contacts == 1

    def test_first_resolution_wins(self):
        reg = QueryRegistry()
        rec = reg.start(1, "k", 5, 0.0, False)
        assert reg.succeed(rec.query_id, 10.0, holder=2)
        assert not reg.succeed(rec.query_id, 20.0, holder=3)
        assert not reg.fail(rec.query_id, 30.0)
        assert rec.holder == 2

    def test_failure_stats(self):
        reg = QueryRegistry()
        a = reg.start(1, "a", 0, 0.0, False)
        b = reg.start(1, "b", 0, 0.0, False)
        reg.succeed(a.query_id, 5.0, holder=2)
        reg.fail(b.query_id, 100.0)
        stats = reg.stats()
        assert stats.total == 2
        assert stats.failure_ratio == pytest.approx(0.5)
        assert stats.mean_latency == pytest.approx(5.0)

    def test_contacts_after_resolution_still_counted(self):
        """connum includes flood packets that land after the answer."""
        reg = QueryRegistry()
        rec = reg.start(1, "k", 0, 0.0, False)
        reg.succeed(rec.query_id, 1.0, holder=2)
        reg.contact(rec.query_id)
        assert reg.stats().connum == 1

    def test_unknown_query_contact_is_noop(self):
        reg = QueryRegistry()
        reg.contact(999)  # must not raise

    def test_empty_stats(self):
        stats = QueryRegistry().stats()
        assert stats.total == 0
        assert stats.failure_ratio == 0.0
        assert math.isnan(stats.mean_latency)

    def test_reset_keeps_ids_monotone(self):
        reg = QueryRegistry()
        a = reg.start(1, "a", 0, 0.0, False)
        reg.reset()
        b = reg.start(1, "b", 0, 0.0, False)
        assert b.query_id > a.query_id
