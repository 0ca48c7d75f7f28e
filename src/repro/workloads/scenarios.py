"""Canned end-to-end scenarios.

Thin composition helpers shared by the examples, the experiment drivers
and the integration tests: build a system, push a workload through it,
return the stats.  Every scenario is deterministic for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.config import ASSIGN_INTEREST, HybridConfig
from ..core.hybrid import SETTLE_AFTER_CRASH, HybridSystem
from ..core.lookup import QueryStats
from ..overlay.idspace import ID_BITS
from .keys import KeyWorkload

__all__ = ["ScenarioResult", "standard_sharing", "interest_sharing"]


@dataclass
class ScenarioResult:
    """What a scenario hands back to its caller."""

    system: HybridSystem
    workload: KeyWorkload
    stats: QueryStats

    @property
    def failure_ratio(self) -> float:
        return self.stats.failure_ratio

    @property
    def mean_latency(self) -> float:
        return self.stats.mean_latency

    @property
    def connum(self) -> int:
        return self.stats.connum


def standard_sharing(
    config: HybridConfig,
    n_peers: int,
    n_keys: int,
    n_lookups: int,
    seed: int = 0,
    zipf_s: float = 0.0,
    crash_fraction: float = 0.0,
    wave_size: int = 200,
) -> ScenarioResult:
    """The paper's base experiment: build, insert, (optionally crash), look up."""
    system = HybridSystem(config, n_peers=n_peers, seed=seed)
    system.build()
    addresses = [p.address for p in system.alive_peers()]
    rng = system.rngs.stream("workload")
    workload = KeyWorkload.uniform(n_keys, addresses, rng, zipf_s=zipf_s)
    system.populate(workload.store_plan())
    if crash_fraction > 0.0:
        system.crash_random_fraction(crash_fraction)
        system.settle(SETTLE_AFTER_CRASH)
    alive = [p.address for p in system.alive_peers()]
    pairs = workload.sample_lookups(n_lookups, alive)
    system.run_lookups(pairs, wave_size=wave_size)
    return ScenarioResult(system=system, workload=workload, stats=system.query_stats())


def interest_sharing(
    config: HybridConfig,
    n_peers: int,
    categories: Sequence[str],
    keys_per_category: int,
    n_lookups: int,
    seed: int = 0,
    locality: float = 0.9,
    wave_size: int = 200,
) -> ScenarioResult:
    """Section 5.3: interest-based s-networks with local-heavy lookups.

    Peers declare interests round-robin over ``categories``; the server
    anchors each category at the t-peer owning its hash, and the
    clustered key space keeps category data inside that segment.
    """
    if config.assignment != ASSIGN_INTEREST:
        config = config.with_changes(assignment=ASSIGN_INTEREST)
    if config.interest_band_bits == 0:
        config = config.with_changes(
            interest_band_bits=max(8, ID_BITS // 2 - 4)
        )
    system = HybridSystem(config, n_peers=n_peers, seed=seed)
    interests: List[Optional[str]] = [
        categories[i % len(categories)] for i in range(n_peers)
    ]
    system.build(interests=interests)
    rng = system.rngs.stream("workload")
    peers_by_interest: Dict[str, List[int]] = {c: [] for c in categories}
    for peer in system.alive_peers():
        if peer.interest in peers_by_interest:
            peers_by_interest[peer.interest].append(peer.address)
    workload = KeyWorkload.with_interests(
        categories, keys_per_category, peers_by_interest, rng, locality=locality
    )
    system.populate(workload.store_plan())
    alive = [p.address for p in system.alive_peers()]
    bias = {c: addrs for c, addrs in peers_by_interest.items() if addrs}
    lookup_rng = np.random.default_rng(seed + 1)
    pairs = []
    for origin, key in workload.sample_lookups(n_lookups, alive, origin_bias=None):
        cat = key.partition(":")[0]
        pool = bias.get(cat, alive)
        if lookup_rng.random() < locality and pool:
            origin = int(pool[int(lookup_rng.integers(0, len(pool)))])
        pairs.append((origin, key))
    system.run_lookups(pairs, wave_size=wave_size)
    return ScenarioResult(system=system, workload=workload, stats=system.query_stats())
