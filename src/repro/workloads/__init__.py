"""Synthetic workload substrate.

Key universes and popularity samplers (:mod:`~repro.workloads.keys`),
churn schedules (:mod:`~repro.workloads.churn`), and the Section 5.3
interest-sharing scenario (:mod:`~repro.workloads.scenarios`).
"""

from .churn import ChurnEvent, PoissonChurn, apply_churn
from .keys import KeyWorkload, interest_keys, zipf_weights
from .scenarios import interest_sharing

__all__ = [
    "ChurnEvent",
    "PoissonChurn",
    "apply_churn",
    "KeyWorkload",
    "interest_keys",
    "zipf_weights",
    "interest_sharing",
]
