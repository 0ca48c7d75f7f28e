#!/usr/bin/env python3
"""A heterogeneous swarm: fast peers take the backbone, trackers serve
the stubs (Sections 5.1 + 5.5).

One third of the peers sit on dial-up-class links, one third on cable-
class links ten times faster (the paper's setup).  With the link-
heterogeneity enhancement the server hands t-duty to the fastest links;
with BitTorrent-style s-networks each t-peer doubles as a tracker so no
flooding happens at all.  The script stacks the two enhancements and
measures what each buys.

Run:  python examples/heterogeneous_swarm.py
"""

from __future__ import annotations

from collections import Counter

from repro import HybridConfig, HybridSystem
from repro.net.links import CapacityClass, capacity_of
from repro.workloads import KeyWorkload


def run(config: HybridConfig, label: str, seed: int = 5):
    system = HybridSystem(config, n_peers=180, seed=seed)
    system.build()
    peers = [p.address for p in system.alive_peers()]
    workload = KeyWorkload.uniform(540, peers, system.rngs.stream("demo"))
    system.populate(workload.store_plan())
    system.run_lookups(workload.sample_lookups(540, peers))
    stats = system.query_stats()
    print(f"{label:<34} latency={stats.mean_latency:7.1f} ms  "
          f"connum={stats.connum:6d}  fail={stats.failure_ratio:.3f}")
    return system, stats


def main() -> None:
    base = HybridConfig(p_s=0.75, delta=3, ttl=6)
    print("variant                            results")
    print("-" * 72)
    _, base_stats = run(base, "base (random roles, flooding)")
    hetero_system, hetero_stats = run(
        base.with_changes(heterogeneity_aware=True),
        "+ link heterogeneity (5.1)",
    )
    _, bt_stats = run(
        base.with_changes(
            heterogeneity_aware=True,
            snetwork_style="bittorrent",
        ),
        "+ BitTorrent-style trackers (5.5)",
    )

    # Who ended up on the backbone?
    print()
    tier = {capacity_of(c): c.name.lower() for c in CapacityClass}
    t_class = Counter(tier[p.capacity] for p in hetero_system.t_peers())
    total_t = sum(t_class.values())
    print(f"t-peer link classes under the 5.1 policy "
          f"({total_t} t-peers): {dict(t_class)}")

    print()
    print(f"heterogeneity awareness cut latency by "
          f"{1 - hetero_stats.mean_latency / base_stats.mean_latency:.0%}")
    print(f"tracker-style s-networks cut contacted peers by "
          f"{1 - bt_stats.connum / base_stats.connum:.0%} vs the base")


if __name__ == "__main__":
    main()
