"""Extension experiment: swarm bulk transfer vs single-holder flash crowd.

Section 5.5's tracker mode exists for exactly one failure shape: a
popular item whose every download hits the one peer that stores it.
With ``repro.swarm`` the item is split into hashed pieces, the owner
t-peer tracks who holds what, and every fetcher that completes a piece
immediately becomes a source for it -- so a flash crowd's load spreads
over the crowd itself instead of concentrating on the publisher.

The simulator's delay model has no link serialization (a peer can
answer any number of requests in parallel), so wall-clock speedup can
only be measured live (``tests/test_swarm_runtime.py`` holds the
hash-verified transfer; a swarm workload in the perf ledger would hold
the speed).  What the sim can
measure deterministically is the load shape: pieces served per peer,
counted off the trace bus.  The naive baseline needs no run at all --
a single holder serves every piece of every download by definition, so
its max-load column is exact: ``fetchers x pieces``.

Run: ``repro experiment swarm [--scale ...] [--seed N]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..core.config import SNETWORK_BITTORRENT, HybridConfig
from ..core.hybrid import HybridSystem
from ..metrics.report import format_table

__all__ = ["SwarmCell", "run", "main"]

FETCHER_COUNTS: Sequence[int] = (4, 8, 16)


@dataclass(frozen=True)
class SwarmCell:
    """Load shape of one flash crowd of ``fetchers`` concurrent peers."""

    fetchers: int
    pieces: int
    total_tx: int  # pieces served, all peers summed
    publisher_tx: int  # pieces served by the original publisher
    max_peer_tx: int  # busiest single peer (swarm)
    naive_max_tx: int  # busiest peer under single-holder = fetchers * pieces
    mean_ms: float  # mean fetch completion (protocol ms)
    integrity_failures: int

    @property
    def publisher_share(self) -> float:
        return self.publisher_tx / self.total_tx if self.total_tx else 0.0

    @property
    def concentration(self) -> float:
        """Busiest-peer share of the transfer: 1.0 = naive single holder."""
        return self.max_peer_tx / self.total_tx if self.total_tx else 0.0


def _flash_crowd(
    n_peers: int, n_fetchers: int, n_pieces: int, p_s: float, seed: int
) -> SwarmCell:
    config = HybridConfig(
        p_s=p_s,
        snetwork_style=SNETWORK_BITTORRENT,
        swarm_piece_size=1_000,
        swarm_inflight=4,
    )
    system = HybridSystem(config, n_peers=n_peers, seed=seed)
    system.build()
    s_peers = sorted(system.s_peers(), key=lambda p: p.address)
    if len(s_peers) < n_fetchers + 1:
        raise ValueError(
            f"need {n_fetchers + 1} s-peers, built {len(s_peers)} "
            f"(raise n_peers or p_s)"
        )
    publisher, fetchers = s_peers[0], s_peers[1 : n_fetchers + 1]

    tx_by_peer: Dict[int, int] = {}

    def _count_tx(rec) -> None:
        if rec.payload.get("dir") == "tx":
            peer = rec.payload.get("peer", -1)
            tx_by_peer[peer] = tx_by_peer.get(peer, 0) + 1

    system.trace.subscribe("swarm.piece", _count_tx)

    data = bytes(i % 251 for i in range(n_pieces * config.swarm_piece_size))
    manifest = publisher.swarm_publish("hot-item", data)
    system.settle(2_000.0)  # let the seed announce reach the tracker

    done: List[Dict[str, object]] = []

    def _make_cb():
        def _cb(result, info):
            done.append({"ok": result == data, **info})

        return _cb

    start = system.engine.now
    for peer in fetchers:
        peer.swarm_fetch(manifest, _make_cb())
    system.engine.run_while(lambda: len(done) < n_fetchers, 5_000_000)
    system.trace.unsubscribe("swarm.piece", _count_tx)

    if len(done) < n_fetchers:
        raise RuntimeError(
            f"flash crowd did not drain: {len(done)}/{n_fetchers} finished"
        )
    if not all(d["ok"] for d in done):
        raise RuntimeError("a fetcher assembled wrong bytes (integrity bug)")

    pieces = len(manifest["pieces"])
    return SwarmCell(
        fetchers=n_fetchers,
        pieces=pieces,
        total_tx=sum(tx_by_peer.values()),
        publisher_tx=tx_by_peer.get(publisher.address, 0),
        max_peer_tx=max(tx_by_peer.values(), default=0),
        naive_max_tx=n_fetchers * pieces,
        mean_ms=sum(float(d["duration_ms"]) for d in done) / n_fetchers,
        integrity_failures=sum(int(d["integrity_failures"]) for d in done),
    )


def run(
    n_peers: int = 40,
    fetcher_counts: Sequence[int] = FETCHER_COUNTS,
    n_pieces: int = 24,
    p_s: float = 0.7,
    seed: int = 0,
) -> List[SwarmCell]:
    return [
        _flash_crowd(n_peers, f, n_pieces, p_s, seed) for f in fetcher_counts
    ]


def main(n_peers: int = 40, seed: int = 0) -> str:
    cells = run(n_peers=n_peers, seed=seed)
    rows = [
        [
            cell.fetchers,
            cell.pieces,
            f"{cell.publisher_share:.1%}",
            f"{cell.max_peer_tx} ({cell.concentration:.1%})",
            f"{cell.naive_max_tx} (100.0%)",
            f"{cell.mean_ms:.0f}",
            cell.integrity_failures,
        ]
        for cell in cells
    ]
    return format_table(
        [
            "fetchers", "pieces", "publisher share",
            "max peer tx (swarm)", "max peer tx (naive)",
            "mean fetch ms", "bad pieces",
        ],
        rows,
        title=f"Extension -- swarm load spread vs single holder (N={n_peers})",
    )


if __name__ == "__main__":  # pragma: no cover
    print(main())
