"""Topology-aware landmark binning (Section 5.2).

Implements the binning scheme of Ratnasamy et al. [17] that the paper
adopts: the server designates landmark nodes; each joining peer probes
its distance to every landmark and sorts the landmark list by distance.
The resulting ordering is the peer's *coordinate*; peers with equal (or
near-equal) coordinates are physically close, and the server assigns
them to the same s-network.

In the simulation the "probe" is a read of the routing table -- the
same latency the probe packet would measure.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..net.routing import Router

__all__ = ["choose_landmarks", "coordinate_of", "prefix_similarity"]


def choose_landmarks(
    router: Router,
    n_landmarks: int,
    rng: np.random.Generator,
    spread_rounds: int = 8,
) -> Tuple[int, ...]:
    """Pick ``n_landmarks`` hosts, far from one another.

    The paper predetermines landmarks "so that they are uniformly
    distributed around the network" and requires that "every two
    landmark peers should not be too close to each other".  We use
    farthest-point sampling with a random start: iteratively add the
    candidate host that maximises its minimum latency to the landmarks
    chosen so far (sampling candidates to stay cheap).
    """
    n = router.n
    if not (1 <= n_landmarks <= n):
        raise ValueError(f"n_landmarks must be in [1, {n}], got {n_landmarks}")
    landmarks = [int(rng.integers(0, n))]
    while len(landmarks) < n_landmarks:
        candidates = rng.integers(0, n, size=max(spread_rounds * 8, 32))
        best, best_score = None, -1.0
        for c in candidates:
            c = int(c)
            if c in landmarks:
                continue
            score = min(router.latency(c, l) for l in landmarks)
            if score > best_score:
                best, best_score = c, score
        if best is None:  # tiny networks: fall back to any unused host
            remaining = [h for h in range(n) if h not in landmarks]
            best = remaining[0]
        landmarks.append(best)
    return tuple(landmarks)


def coordinate_of(
    router: Router, host: int, landmarks: Sequence[int]
) -> Tuple[int, ...]:
    """A peer's bin: landmark indices in ascending order of distance.

    "The landmark peers are listed in an ascending order of distances.
    The ordered list acts as the coordinate of the new peer."
    """
    distances = [(router.latency(host, l), i) for i, l in enumerate(landmarks)]
    distances.sort()
    return tuple(i for _, i in distances)


def prefix_similarity(a: Tuple[int, ...], b: Tuple[int, ...]) -> int:
    """Length of the common prefix of two coordinates.

    The server uses this to find the physically nearest s-network when
    no exact bin match exists (more s-networks than bins, or vice
    versa).
    """
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n
