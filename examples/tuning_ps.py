#!/usr/bin/env python3
"""Choosing the system parameter p_s: simulation meets analysis.

Sweeps the headline knob of the paper -- the fraction of s-peers -- and
prints, side by side, what Section 4's closed forms predict and what
the event-driven simulation measures: lookup latency and connum fall
with p_s while the failure ratio climbs once the flood radius stops
covering the growing s-networks.  The paper's recommendation (~0.7 with
a TTL picked to keep failures acceptable) drops out of the table.

Run:  python examples/tuning_ps.py
"""

from __future__ import annotations

from repro import HybridConfig
from repro.analysis import failure_ratio_model, join_latency, lookup_latency
from repro.experiments import Scale, run_cell
from repro.metrics import format_table

N_PEERS = 150
DELTA = 3
TTL = 4
PS_GRID = (0.0, 0.2, 0.4, 0.6, 0.7, 0.8, 0.9)


def main() -> None:
    rows = []
    for p_s in PS_GRID:
        stats = run_cell(
            HybridConfig(p_s=p_s, delta=DELTA, ttl=TTL),
            Scale(n_peers=N_PEERS, n_keys=450, n_lookups=450, seed=13),
        )
        rows.append(
            [
                f"{p_s:.1f}",
                f"{join_latency(max(p_s, 1e-6), N_PEERS, DELTA):.2f}",
                f"{lookup_latency(max(p_s, 1e-6), N_PEERS, TTL, DELTA):.2f}",
                f"{failure_ratio_model(p_s, DELTA, TTL):.3f}",
                f"{stats.mean_latency:.0f}",
                f"{stats.failure_ratio:.3f}",
                stats.connum,
            ]
        )
    print(
        format_table(
            [
                "p_s",
                "join (model, hops)",
                "lookup (model, hops)",
                "fail (model)",
                "latency (sim, ms)",
                "fail (sim)",
                "connum (sim)",
            ],
            rows,
            title=(
                f"Tuning p_s: Section 4 models vs simulation "
                f"(N={N_PEERS}, delta={DELTA}, TTL={TTL})"
            ),
        )
    )
    print()
    print("reading the table: latency and connum keep improving with p_s,")
    print("the failure ratio is the price; p_s ~ 0.7 with TTL 4 is the")
    print("paper's sweet spot (efficiency gains, failures still near zero).")


if __name__ == "__main__":
    main()
