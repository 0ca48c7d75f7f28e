"""Measurement helpers.

Items-per-peer distributions (:mod:`~repro.metrics.distributions`),
the membership log (:mod:`~repro.metrics.collectors`), and plain-text
table rendering for the experiment harness
(:mod:`~repro.metrics.report`).
"""

from .collectors import MembershipLog
from .distributions import (
    DistributionSummary,
    gini,
    items_pdf,
    summarize_distribution,
)
from .report import format_grid, format_series, format_table

__all__ = [
    "MembershipLog",
    "DistributionSummary",
    "gini",
    "items_pdf",
    "summarize_distribution",
    "format_grid",
    "format_series",
    "format_table",
]
