"""Access-link capacity model (link heterogeneity).

Section 5.1 of the paper: peers have heterogeneous access links
(dial-up / ADSL / cable), with up to 1000x spread between the fastest
and slowest.  The simulation section then pins the experimental setup
down: *"1/3 of the peers have the highest link capacities, 1/3 of them
have the lowest link capacities, and 1/3 of them have the medium link
capacities.  The highest link capacity is 10 times of the lowest link
capacity."*

This module assigns capacity classes to hosts.  The transfer time of a
message over an overlay hop is bounded by the slower of the two endpoint
access links; :meth:`~repro.overlay.transport.Transport.send` charges it.
"""

from __future__ import annotations

from enum import IntEnum
from typing import List

import numpy as np

__all__ = [
    "CapacityClass",
    "CapacityModel",
    "RATIO_HIGH_TO_LOW",
    "TIER_FRACTIONS",
    "UNIT_CAPACITY",
    "capacity_of",
]


class CapacityClass(IntEnum):
    """The three capacity tiers of the paper's simulation setup."""

    LOW = 0
    MEDIUM = 1
    HIGH = 2


#: "The highest link capacity is 10 times of the lowest link capacity";
#: the medium tier sits at the geometric midpoint so each step is the
#: same factor.
RATIO_HIGH_TO_LOW = 10.0
#: Absolute scale (LOW tier) in message-size units per millisecond.  It
#: makes a CONTROL_SIZE message cost ~20 ms on the slowest access link
#: and ~2 ms on the fastest -- comparable to propagation delays, so
#: link heterogeneity visibly shapes lookup latency (the Fig. 6a
#: effect).  Only ratios matter for the paper's qualitative conclusions.
UNIT_CAPACITY = 0.05
#: Share of hosts in the LOW, MEDIUM and HIGH tiers: thirds.
TIER_FRACTIONS = (1 / 3, 1 / 3, 1 / 3)


def capacity_of(cls: CapacityClass) -> float:
    """Capacity value of a tier (LOW = unit, HIGH = ratio * unit)."""
    step = RATIO_HIGH_TO_LOW ** 0.5
    return UNIT_CAPACITY * (step ** int(cls))


class CapacityModel:
    """Per-host access-link capacities.

    Parameters
    ----------
    n_hosts:
        Number of hosts to label.
    rng:
        Randomness for the (shuffled) class assignment.
    """

    def __init__(self, n_hosts: int, rng: np.random.Generator) -> None:
        if n_hosts < 0:
            raise ValueError("n_hosts must be non-negative")
        counts = [int(round(f * n_hosts)) for f in TIER_FRACTIONS]
        # Fix rounding drift on the last class.
        counts[-1] = n_hosts - counts[0] - counts[1]
        labels: List[CapacityClass] = (
            [CapacityClass.LOW] * counts[0]
            + [CapacityClass.MEDIUM] * counts[1]
            + [CapacityClass.HIGH] * counts[2]
        )
        rng.shuffle(labels)  # type: ignore[arg-type]
        self._classes = labels
        self._capacity = [capacity_of(c) for c in labels]
        self._rng = rng

    def __len__(self) -> int:
        return len(self._classes)

    def ensure(self, n_hosts: int) -> None:
        """Grow the model to cover at least ``n_hosts`` hosts.

        New hosts draw a class from the tier fractions; used when
        peers join dynamically after the initial population was sized.
        """
        while len(self._classes) < n_hosts:
            u = float(self._rng.random())
            f = TIER_FRACTIONS
            if u < f[0]:
                cls = CapacityClass.LOW
            elif u < f[0] + f[1]:
                cls = CapacityClass.MEDIUM
            else:
                cls = CapacityClass.HIGH
            self._classes.append(cls)
            self._capacity.append(capacity_of(cls))

    def capacity_class(self, host: int) -> CapacityClass:
        """Tier of ``host``."""
        return self._classes[host]

    def capacity(self, host: int) -> float:
        """Access-link capacity of ``host`` (grows on demand)."""
        if host >= len(self._capacity):
            self.ensure(host + 1)
        return float(self._capacity[host])

    def classes(self) -> List[CapacityClass]:
        """Copy of the per-host class labels."""
        return list(self._classes)
