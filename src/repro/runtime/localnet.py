"""In-process localnet: N live nodes on ephemeral localhost ports.

The harness tests and CI use to exercise the live runtime end to end
without shelling out N daemons: every node runs as asyncio tasks inside
one process, but all protocol traffic still crosses real TCP sockets
(each node has its own listener, transport pool and timers -- nothing
is shared except the event loop).

Typical use::

    net = LocalNet(t_peers=2, s_peers=2, seed=7)
    await net.start()          # boots bootstrap + peers, joins in order
    await net.wait_converged() # directory ring == live ring pointers
    ...
    await net.stop()           # clean teardown, no leaked tasks/sockets
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional

from ..core.config import HybridConfig
from .bootstrap import BootstrapNode
from .node import PeerNode

__all__ = ["LocalNet", "fast_config"]


def fast_config(**overrides: object) -> HybridConfig:
    """A config with timers scaled for wall-clock tests.

    Protocol timeouts are in milliseconds of *protocol* time, which in
    the live runtime is real time -- the simulator's defaults (60 s
    lookup timeout, 1 s HELLO period) would make tests crawl.  The
    liveness timeouts follow ``hello_period`` (350 ms to declare a
    neighbor dead, 300 ms of election grace).
    """
    base = dict(
        hello_period=100.0,
        join_retry_timeout=800.0,
        lookup_timeout=2_000.0,
        max_refloods=1,
    )
    base.update(overrides)
    return HybridConfig(**base)


class LocalNet:
    """One bootstrap daemon plus ``t_peers + s_peers`` live peers."""

    def __init__(
        self,
        t_peers: int = 2,
        s_peers: int = 2,
        config: Optional[HybridConfig] = None,
        seed: int = 0,
        host: str = "127.0.0.1",
    ) -> None:
        if t_peers < 1:
            raise ValueError("need at least one t-peer to anchor the ring")
        self.t_peers = t_peers
        self.s_peers = s_peers
        self.host = host
        self.seed = seed
        self.config = config if config is not None else fast_config()
        self.bootstrap: Optional[BootstrapNode] = None
        self.nodes: List[PeerNode] = []

    # ------------------------------------------------------------------
    async def start(self, join_timeout: float = 30.0) -> None:
        """Boot the bootstrap daemon, then join peers one at a time.

        Joins are sequential, matching the simulator's build phase: the
        first peer bootstraps the ring, later t-peers run the ring-walk
        join, s-peers attach to their assigned s-network.  Roles are
        forced through the server's ``preassigned_roles`` hook so the
        requested t/s split is exact regardless of the ``p_s`` ratio.
        """
        self.bootstrap = BootstrapNode(self.host, 0, self.config, seed=self.seed)
        await self.bootstrap.start()
        live_config = self.bootstrap.config  # server_address now filled in

        roles = ["t"] * self.t_peers + ["s"] * self.s_peers
        for i, role in enumerate(roles):
            node = PeerNode(self.host, 0, live_config, seed=self.seed + 1 + i)
            await node.start()
            self.bootstrap.server.preassigned_roles[node.address] = role
            await node.join(timeout=join_timeout)
            self.nodes.append(node)

    # ------------------------------------------------------------------
    def _converged(self) -> bool:
        """Directory view == live peer state, for every peer."""
        assert self.bootstrap is not None
        directory = {
            addr: p_id for p_id, addr in self.bootstrap.server.ring.members()
        }
        t_nodes = [n for n in self.nodes if n.peer.role == "t"]
        s_nodes = [n for n in self.nodes if n.peer.role == "s"]
        if len(directory) != len(t_nodes):
            return False
        for node in t_nodes:
            peer = node.peer
            if directory.get(peer.address) != peer.p_id:
                return False
            pre, suc = self.bootstrap.server.ring.neighbors_of(peer.address)
            if peer.predecessor != pre[1] or peer.successor != suc[1]:
                return False
        for node in s_nodes:
            peer = node.peer
            if not peer.joined or peer.t_peer not in directory:
                return False
        return True

    async def wait_converged(self, timeout: float = 30.0) -> None:
        """Block until the live ring matches the directory (or raise)."""
        deadline = asyncio.get_running_loop().time() + timeout
        while not self._converged():
            if asyncio.get_running_loop().time() > deadline:
                raise TimeoutError("localnet did not converge: " + self.describe())
            await asyncio.sleep(0.05)

    def describe(self) -> str:
        parts = []
        for node in self.nodes:
            p = node.peer
            parts.append(
                f"{node.host}:{node.port} role={p.role} joined={p.joined} "
                f"p_id={p.p_id}"
            )
        return "; ".join(parts)

    # ------------------------------------------------------------------
    def node_for_key(self, key: str, remote_from: PeerNode) -> PeerNode:
        """A node whose segment does NOT own ``key`` (for remote-get tests)."""
        d_id = remote_from.peer.idspace.hash_key(key)
        for node in self.nodes:
            if not node.peer.owns_locally(d_id):
                return node
        raise LookupError(f"every node owns {key!r} locally")

    def endpoints(self) -> Dict[str, object]:
        assert self.bootstrap is not None
        return {
            "bootstrap": f"{self.bootstrap.host}:{self.bootstrap.port}",
            "nodes": [f"{n.host}:{n.port}" for n in self.nodes],
        }

    def metrics_snapshots(self) -> Dict[str, Dict[str, object]]:
        """Registry snapshot per daemon, keyed by endpoint.

        The in-process equivalent of scraping ``/metrics.json`` from
        every node -- what the observability tests diff against a
        simulated run of the same topology.
        """
        daemons = ([self.bootstrap] if self.bootstrap is not None else []) + self.nodes
        return {
            f"{d.host}:{d.port}": d.registry.snapshot() for d in daemons
        }

    # ------------------------------------------------------------------
    async def stop(self) -> None:
        """Tear everything down; safe to call after partial start."""
        for node in reversed(self.nodes):
            await node.stop()
        self.nodes.clear()
        if self.bootstrap is not None:
            await self.bootstrap.stop()
            self.bootstrap = None
