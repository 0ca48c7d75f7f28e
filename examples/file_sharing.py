#!/usr/bin/env python3
"""Interest-based file sharing communities (Section 5.3).

Peers declare an interest (music / video / books / games) when joining;
the server groups each interest into its own s-network, and the
clustered key space keeps a category's data inside that s-network's
segment.  Most lookups then resolve inside the origin's own community
without ever touching the t-network ring.

The script contrasts the interest-based deployment with a baseline that
scatters the same peers and data randomly, and prints how much locality
the enhancement buys.

Run:  python examples/file_sharing.py
"""

from __future__ import annotations

from repro import HybridConfig
from repro.experiments import Scale, run_cell
from repro.workloads import interest_sharing

CATEGORIES = ["music", "video", "books", "games"]


def main() -> None:
    print("== interest-based s-networks (Section 5.3) ==")
    # Interest communities are large (~50 peers here), so give the flood
    # a radius that covers a community tree leaf-to-leaf.
    system = interest_sharing(
        HybridConfig(p_s=0.8, delta=3, ttl=10),
        n_peers=200,
        categories=CATEGORIES,
        keys_per_category=150,
        n_lookups=800,
        seed=7,
        locality=0.9,  # 90% of lookups target the peer's own interest
    )
    stats = system.query_stats()
    print(f"communities: {len(CATEGORIES)} interests over "
          f"{len(system.t_peers())} s-networks")
    for category, anchor in sorted(system.server.interest_map.items()):
        size = system.snetwork_sizes().get(anchor, 0)
        print(f"  {category:<6} anchored at t-peer {anchor} "
              f"({size} member s-peers)")
    print(f"failure ratio: {stats.failure_ratio:.4f}")
    print(f"mean latency:  {stats.mean_latency:.1f} ms")
    print(f"local lookups: {stats.local_fraction:.1%} "
          "(resolved without the t-network)")
    print(f"connum:        {stats.connum}")

    print()
    print("== baseline: same scale, random assignment, uniform keys ==")
    out = {}
    run_cell(
        HybridConfig(p_s=0.8, delta=3, ttl=10),
        Scale(n_peers=200, n_keys=len(CATEGORIES) * 150, n_lookups=800, seed=7),
        system_out=out,
    )
    base = out["system"].query_stats()
    print(f"failure ratio: {base.failure_ratio:.4f}")
    print(f"mean latency:  {base.mean_latency:.1f} ms")
    print(f"local lookups: {base.local_fraction:.1%}")
    print(f"connum:        {base.connum}")

    print()
    faster = 1 - stats.mean_latency / base.mean_latency
    print(f"interest-based communities resolved lookups {faster:.0%} faster:")
    print("most queries never touch the t-network ring "
          f"({stats.local_fraction:.0%} local vs "
          f"{base.local_fraction:.0%} in the baseline), trading some "
          "extra flood traffic inside each community")


if __name__ == "__main__":
    main()
