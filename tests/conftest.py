"""Shared fixtures for the test suite.

Most protocol tests want a small, fully built hybrid system; building
one takes a couple hundred milliseconds, so commonly reused
configurations are session-scoped where mutation-free and
function-scoped where tests churn them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import HybridConfig, HybridSystem
from repro.overlay.idspace import IdSpace
from repro.sim import Engine


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def idspace() -> IdSpace:
    return IdSpace(32)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def build_system(
    p_s: float = 0.5,
    n_peers: int = 40,
    seed: int = 7,
    **config_kwargs,
) -> HybridSystem:
    """Build a small hybrid system with the full join protocol."""
    config = HybridConfig(p_s=p_s, **config_kwargs)
    system = HybridSystem(config, n_peers=n_peers, seed=seed)
    system.build()
    if config.heartbeats_enabled or config.replica_sync_period > 0:
        # The engine never empties while HELLO or anti-entropy timers
        # run; advance far enough for trailing control messages to land
        # instead.
        system.settle(2_000.0)
    else:
        system.engine.run()  # drain any trailing control messages
    return system


def build_bulk_system(
    n_peers: int,
    p_s: float = 0.7,
    seed: int = 0,
    **config_kwargs,
) -> HybridSystem:
    """Build a system through ``build_bulk`` (no protocol traffic)."""
    system = HybridSystem(HybridConfig(p_s=p_s, **config_kwargs), n_peers=n_peers, seed=seed)
    system.build_bulk()
    return system


@pytest.fixture
def small_system() -> HybridSystem:
    """A 40-peer half-and-half system (fresh per test)."""
    return build_system()


def check_ring(system: HybridSystem) -> None:
    """Assert the t-network is one consistent, sorted ring."""
    t_peers = {p.address: p for p in system.t_peers()}
    assert t_peers, "no t-peers"
    walk = system.ring_order()
    assert len(walk) == len(t_peers), "ring is split or truncated"
    for addr, peer in t_peers.items():
        suc = t_peers[peer.successor]
        assert suc.predecessor == addr
        assert peer.successor_pid == suc.p_id
        assert suc.predecessor_pid == peer.p_id
    pids = [t_peers[a].p_id for a in walk]
    lo = pids.index(min(pids))
    rotated = pids[lo:] + pids[:lo]
    assert rotated == sorted(rotated), "ring not in p_id order"


def check_trees(system: HybridSystem) -> None:
    """Assert every s-network is a connected tree rooted at its t-peer."""
    peers = {p.address: p for p in system.alive_peers()}
    for p in system.s_peers():
        assert p.cp != -1, f"s-peer {p.address} disconnected"
        assert p.cp in peers, f"s-peer {p.address} cp points at dead peer"
        assert p.t_peer in peers
        assert peers[p.t_peer].role == "t"
        # Walking cp pointers must reach the t-peer without cycles.
        seen = set()
        cur = p
        while cur.role == "s":
            assert cur.address not in seen, "cycle in tree"
            seen.add(cur.address)
            assert cur.address in peers[cur.cp].children, (
                f"{cur.address} not registered as child of its cp {cur.cp}"
            )
            cur = peers[cur.cp]
        assert cur.address == p.t_peer
