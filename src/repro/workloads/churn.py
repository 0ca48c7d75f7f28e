"""Churn schedules.

Measurement studies of deployed P2P systems report heavy churn
[refs 21, 22]; the paper's own churn experiment (Fig. 5b) crashes a
random fraction of peers, which
:meth:`~repro.core.hybrid.HybridSystem.crash_random_fraction` does in
one batch.  This module generates continuous churn,
:class:`PoissonChurn`: exponential inter-arrival joins plus exponential
peer lifetimes ending in a graceful leave or a crash, for the
robustness tests that go beyond the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Literal, Tuple

import numpy as np

__all__ = ["ChurnEvent", "PoissonChurn"]

EventKind = Literal["join", "leave", "crash"]


@dataclass(frozen=True)
class ChurnEvent:
    """One scheduled membership change.

    ``target`` is a peer address for leave/crash, or -1 for a join
    (the address does not exist until the join happens).
    """

    time: float
    kind: EventKind
    target: int = -1


@dataclass
class PoissonChurn:
    """Continuous churn: Poisson joins, exponential lifetimes.

    Parameters
    ----------
    join_rate:
        Joins per millisecond.
    mean_lifetime:
        Mean peer lifetime (ms) after its join.
    crash_probability:
        Fraction of departures that are crashes (vs graceful leaves).
    """

    join_rate: float
    mean_lifetime: float
    crash_probability: float = 0.5
    _events: List[ChurnEvent] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.join_rate <= 0:
            raise ValueError("join_rate must be positive")
        if self.mean_lifetime <= 0:
            raise ValueError("mean_lifetime must be positive")
        if not (0.0 <= self.crash_probability <= 1.0):
            raise ValueError("crash_probability must be in [0, 1]")

    def generate(
        self,
        duration: float,
        existing: List[int],
        rng: np.random.Generator,
    ) -> List[ChurnEvent]:
        """Events over ``[0, duration)``.

        Existing peers get lifetimes too (memoryless, so sampling their
        remaining lifetime from the same exponential is exact); joined
        peers' departures are scheduled with target -1 -- the driver
        resolves them to the address the join actually produced.
        """
        events: List[ChurnEvent] = []
        for addr in existing:
            life = float(rng.exponential(self.mean_lifetime))
            if life < duration:
                kind: EventKind = (
                    "crash" if rng.random() < self.crash_probability else "leave"
                )
                events.append(ChurnEvent(time=life, kind=kind, target=int(addr)))
        t = float(rng.exponential(1.0 / self.join_rate))
        while t < duration:
            events.append(ChurnEvent(time=t, kind="join"))
            end = t + float(rng.exponential(self.mean_lifetime))
            if end < duration:
                kind = "crash" if rng.random() < self.crash_probability else "leave"
                # target -1: resolved by the driver to the joined address.
                events.append(ChurnEvent(time=end, kind=kind, target=-1))
            t += float(rng.exponential(1.0 / self.join_rate))
        events.sort(key=lambda e: e.time)
        return events


def apply_churn(system, events: List[ChurnEvent], settle_between: float = 0.0) -> Tuple[int, int, int]:
    """Drive a :class:`~repro.core.hybrid.HybridSystem` through a schedule.

    Returns (joins, leaves, crashes) applied.  Join events create a new
    peer; leave/crash events with target -1 pick the most recently
    churn-joined alive peer (completing the PoissonChurn contract).
    """
    joins = leaves = crashes = 0
    churn_joined: List[int] = []
    for event in sorted(events, key=lambda e: e.time):
        if event.time > system.engine.now:
            system.engine.run_until(event.time)
        if event.kind == "join":
            peer = system.add_peer(wait=False)
            churn_joined.append(peer.address)
            joins += 1
            continue
        target = event.target
        if target == -1:
            while churn_joined and not (
                churn_joined[-1] in system.peers
                and system.peers[churn_joined[-1]].alive
            ):
                churn_joined.pop()
            if not churn_joined:
                continue
            target = churn_joined.pop()
        peer = system.peers.get(target)
        if peer is None or not peer.alive:
            continue
        if event.kind == "leave":
            peer.leave()
            leaves += 1
        else:
            peer.crash()
            crashes += 1
        if settle_between > 0:
            system.settle(settle_between)
    return joins, leaves, crashes
