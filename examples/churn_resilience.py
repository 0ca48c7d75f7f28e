#!/usr/bin/env python3
"""Churn resilience: crash a fifth of the system and watch it heal.

Demonstrates the paper's failure machinery end-to-end (Section 3.2.2):
HELLO heartbeats detect crashed neighbors, orphaned s-peers rejoin
through their t-peer, s-peers whose *t-peer* crashed run a replacement
election at the bootstrap server, and the ring stays whole -- t-peer
positions never move, only their occupants change.

Afterwards the script verifies the paper's Fig. 5b observation: the
lookup failure ratio equals the fraction of data that died with the
crashed peers, no more.

Run:  python examples/churn_resilience.py
"""

from __future__ import annotations

from repro import HybridConfig, HybridSystem
from repro.metrics import MembershipLog
from repro.workloads import KeyWorkload


def main() -> None:
    config = HybridConfig(
        p_s=0.7,
        delta=3,
        ttl=6,
        heartbeats_enabled=True,
        hello_period=1_000.0,  # 1 s heartbeats; 3.5 s of silence is a crash
        lookup_timeout=30_000.0,
    )
    system = HybridSystem(config, n_peers=150, seed=11)
    system.build()
    log = MembershipLog(system.trace)

    peers = [p.address for p in system.alive_peers()]
    workload = KeyWorkload.uniform(450, peers, system.rngs.stream("demo"))
    system.populate(workload.store_plan())
    total_items = system.total_items()
    print(f"built {len(peers)} peers "
          f"({len(system.t_peers())} t / {len(system.s_peers())} s), "
          f"holding {total_items} items")

    # -- the crash storm ---------------------------------------------------
    crashed = system.crash_random_fraction(0.20)
    crashed_t = sum(1 for a in crashed if system.peers[a].role == "t")
    print(f"\ncrashed {len(crashed)} peers without warning "
          f"({crashed_t} of them t-peers)")

    system.settle(45_000.0)  # let detection, elections and rejoins run

    print("recovery events observed:")
    print(f"  crash detections:        {log.count('crash.detected')}")
    print(f"  t-peer elections won:    {log.count('t.promotion')}")
    print(f"  ring slots dissolved:    {log.count('server.excise')}")
    print(f"  s-peers re-attached:     {log.count('s.rejoined')}")
    print(f"  rejoin retries needed:   {log.count('s.rejoin.retry')}")

    # -- verify the healed topology -----------------------------------------
    alive = system.alive_peers()
    orphans = [p.address for p in alive if p.role == "s" and p.cp == -1]
    ring = system.ring_order()
    print(f"\nafter healing: {len(alive)} alive peers, "
          f"ring covers {len(ring)}/{len(system.t_peers())} t-peers, "
          f"{len(orphans)} orphaned s-peers")

    # -- failure ratio equals data loss (Fig. 5b) ------------------------------
    surviving = {i.key for p in alive for i in p.database}
    loss = 1 - len(surviving) / total_items
    addresses = [p.address for p in alive]
    pairs = workload.sample_lookups(450, addresses)
    system.run_lookups(pairs)
    stats = system.query_stats()
    print(f"\ndata lost with crashed peers: {loss:.1%}")
    print(f"lookup failure ratio:         {stats.failure_ratio:.1%}")
    print("=> failures track data loss; the surviving topology resolves "
          "everything that still exists")


if __name__ == "__main__":
    main()
