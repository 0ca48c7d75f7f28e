"""Physical-network substrate.

Replaces GT-ITM + NS2's network layer: transit-stub topology generation
(:mod:`~repro.net.topology`), all-pairs latency routing
(:mod:`~repro.net.routing`), heterogeneous access-link capacities
(:mod:`~repro.net.links`), and link-stress accounting
(:mod:`~repro.net.stress`).
"""

from .links import CapacityClass, CapacityModel
from .routing import Router
from .stress import LinkStress, StressSummary
from .topology import (
    LatencyRanges,
    NodeKind,
    PhysicalTopology,
    TransitStubConfig,
    config_for_size,
    generate_transit_stub,
)

__all__ = [
    "CapacityClass",
    "CapacityModel",
    "Router",
    "LinkStress",
    "StressSummary",
    "LatencyRanges",
    "NodeKind",
    "PhysicalTopology",
    "TransitStubConfig",
    "config_for_size",
    "generate_transit_stub",
]
