"""System facade: build, drive and measure a hybrid P2P deployment.

:class:`HybridSystem` owns the full simulation stack -- engine, physical
topology, router, capacity model, transport, bootstrap server, peers --
and exposes the operations experiments need:

* :meth:`build` -- construct an N-peer system by running every join
  through the real protocol (t-peers first, then s-peers, as a static
  population build; use :meth:`add_peer` for dynamic churn);
* :meth:`populate` / :meth:`store_from` -- drive data insertion;
* :meth:`run_lookups` -- issue lookup workloads in waves and pump the
  engine until each wave resolves;
* :meth:`crash_peers` / :meth:`leave_peers` + :meth:`settle` -- churn;
* metric accessors: :meth:`query_stats`, :meth:`data_distribution`,
  :meth:`join_latencies`, :meth:`snetwork_sizes`.

Determinism: all randomness flows from named streams of one root seed.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..enhance.binning import choose_landmarks, coordinate_of
from ..enhance.heterogeneity import assign_roles
from ..net.links import CapacityModel
from ..net.routing import make_router
from ..net.stress import LinkStress
from ..net.topology import (
    PhysicalTopology,
    config_for_size,
    generate_transit_stub,
)
from ..overlay.idspace import ClusteredIdSpace, IdSpace
from ..overlay.peer import BasePeer
from ..overlay.transport import Transport
from ..sim.engine import Engine
from ..sim.rng import RngRegistry
from ..sim.trace import TraceBus
from .config import ROUTING_FINGER, HybridConfig
from .hybridpeer import HybridPeer, peer_class
from .lookup import QueryRegistry, QueryStats
from .server import BootstrapServer

__all__ = ["HybridSystem"]

#: Simulated time (ms) a measured cell lets pass after a mass crash, so
#: detection, elections and subtree rejoins finish before its lookups.
SETTLE_AFTER_CRASH = 30_000.0


class HybridSystem:
    """A complete, runnable instance of the hybrid peer-to-peer system."""

    def __init__(
        self,
        config: HybridConfig,
        n_peers: int,
        seed: int = 0,
        topology: Optional[PhysicalTopology] = None,
        track_stress: bool = False,
        queries: Optional[QueryRegistry] = None,
    ) -> None:
        config.validate()
        if n_peers < 1:
            raise ValueError("n_peers must be >= 1")
        self.config = config
        self.n_peers = n_peers
        self.rngs = RngRegistry(seed)
        self.engine = Engine()
        self.trace = TraceBus()
        if config.interest_band_bits > 0:
            self.idspace = ClusteredIdSpace(band_bits=config.interest_band_bits)
        else:
            self.idspace = IdSpace()
        # Injectable so the sharded executor can substitute its
        # shard-aware registry before any peer captures the reference.
        self.queries = queries if queries is not None else QueryRegistry()

        # --- physical substrate -----------------------------------------
        if topology is None:
            topology = generate_transit_stub(
                config_for_size(n_peers + 1), self.rngs.stream("topology")
            )
        if topology.n < n_peers + 1:
            raise ValueError(
                f"topology has {topology.n} hosts; need {n_peers + 1} "
                "(peers + server)"
            )
        self.topology = topology
        self.router = make_router(topology)
        self.stress = LinkStress() if track_stress else None

        # Access-link capacities are indexed by overlay address
        # (0 = server, 1..N = peers): the paper's 1/3-1/3-1/3 classes.
        self.capacities = CapacityModel(n_peers + 1, self.rngs.stream("capacity"))
        self.transport = Transport(
            self.engine,
            router=self.router,
            capacity_of=self._capacity_of,
            stress=self.stress,
            trace=self.trace,
        )

        # --- host placement -----------------------------------------------
        # The server sits on a transit node (a well-connected host); each
        # peer gets its own distinct host, chosen uniformly.
        place_rng = self.rngs.stream("placement")
        transit = topology.transit_nodes
        self.server_host = int(transit[int(place_rng.integers(0, len(transit)))])
        candidates = [h for h in range(topology.n) if h != self.server_host]
        hosts = place_rng.choice(len(candidates), size=n_peers, replace=False)
        self._peer_hosts = [int(candidates[int(i)]) for i in hosts]

        # --- landmarks (Section 5.2) ----------------------------------------
        if config.n_landmarks > 0:
            self.landmarks = choose_landmarks(
                self.router, config.n_landmarks, self.rngs.stream("landmarks")
            )
        else:
            self.landmarks = ()

        # --- actors ------------------------------------------------------------
        self.server = BootstrapServer(
            host=self.server_host,
            engine=self.engine,
            transport=self.transport,
            idspace=self.idspace,
            config=config,
            rng=self.rngs.stream("server"),
            trace=self.trace,
            landmarks=self.landmarks,
        )
        self.transport.register(self.server)
        # The core peer plus the features this config turns on.
        self.peer_class = peer_class(config)
        self.peers: Dict[int, HybridPeer] = {}
        self._next_address = 1
        self._stored_count = 0
        self._issued_stores = 0
        self.trace.subscribe("data.stored", self._on_stored)
        self.built = False

    def close(self) -> None:
        """Dismantle a finished system so its memory is freed right away.

        System, transport, engine heap, trace bus and peers reference
        each other in cycles (the transport's actor table holds every
        peer, every armed timer its owner), so a dropped system
        would otherwise sit there until the next full collection --
        several cells later in a sweep worker.  Closing cuts the
        cycles; plain reference counting then frees the graph as the
        last outside reference goes.  The system is unusable afterwards
        (metrics already taken stay valid); closing twice is harmless.
        """
        for actor in (self.server, *self.peers.values()):
            if isinstance(actor, BasePeer):  # a shard's PeerStub holds no references
                vars(actor).clear()
        self.peers.clear()
        self.transport.close()
        self.engine.clear()
        self.trace.clear()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _on_stored(self, record) -> None:
        self._stored_count += 1

    def _capacity_of(self, address: int) -> float:
        """Access-link capacity used by the transport's delay model.

        Resolves through the peer object so the capacity that drove role
        assignment is exactly the capacity that shapes delays (peers are
        created in role order, which permutes addresses).
        """
        peer = self.peers.get(address)
        if peer is not None:
            return peer.capacity
        return self.capacities.capacity(address)

    def _new_peer(
        self,
        host: int,
        capacity: float,
        interest: Optional[str],
    ) -> HybridPeer:
        address = self._next_address
        self._next_address += 1
        coordinate = None
        if self.landmarks:
            coordinate = coordinate_of(self.router, host, self.landmarks)
        peer = self.peer_class(
            address=address,
            host=host,
            engine=self.engine,
            transport=self.transport,
            idspace=self.idspace,
            config=self.config,
            rng=self.rngs.stream("protocol"),
            queries=self.queries,
            capacity=capacity,
            interest=interest,
            coordinate=coordinate,
            trace=self.trace,
        )
        self.transport.register(peer)
        self.peers[address] = peer
        return peer

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build(self, interests: Optional[Sequence[Optional[str]]] = None) -> None:
        """Construct the system by joining all ``n_peers`` peers.

        Roles are pre-assigned to hit ``p_s`` exactly (and, with the
        Section 5.1 enhancement, to give t-duty to the fastest links);
        the pre-assignment stands in for the capacity ranking the
        server would accumulate online.  t-peers join first -- an
        s-network cannot exist before its anchor -- then s-peers.
        Every join runs through the full message protocol.
        """
        for peer, _role in self._create_peers(interests):
            peer.begin_join()
            self.engine.run_while(lambda: not peer.joined)
            if not peer.joined:
                raise RuntimeError(f"peer {peer.address} failed to join")
        self._finish_build()

    def _create_peers(
        self, interests: Optional[Sequence[Optional[str]]]
    ) -> List[Tuple[HybridPeer, str]]:
        """Every peer with its pre-assigned role, t-peers first."""
        if self.built:
            raise RuntimeError("system already built")
        if interests is not None and len(interests) != self.n_peers:
            raise ValueError("interests must have one entry per peer")
        capacities = [self.capacities.capacity(1 + i) for i in range(self.n_peers)]
        roles = assign_roles(
            capacities,
            self.config.p_s,
            self.rngs.stream("roles"),
            self.config.heterogeneity_aware,
        )
        order = sorted(range(self.n_peers), key=lambda i: (roles[i] != "t", i))
        self.server.preassigned_roles = {}
        created = []
        for i in order:
            peer = self._new_peer(
                host=self._peer_hosts[i],
                capacity=capacities[i],
                interest=interests[i] if interests is not None else None,
            )
            self.server.preassigned_roles[peer.address] = roles[i]
            created.append((peer, roles[i]))
        return created

    def _finish_build(self) -> None:
        if self.config.ring_routing == ROUTING_FINGER:
            self.install_fingers()
        if self.config.mesh_extra_links > 0:
            self._wire_mesh()
        self.built = True

    def build_bulk(self, interests: Optional[Sequence[Optional[str]]] = None) -> None:
        """Construct the joined state directly, without protocol traffic.

        The message-driven :meth:`build` walks every t-join linearly
        around the ring, which is O(n_t^2) events -- hours at 10^5+
        peers.  This path materializes the same *kind* of steady state
        (sorted ring with server directory, degree-capped trees,
        installed fingers) in O(n log n) by applying the server's own
        decision procedures (p_id generation, role pre-assignment,
        balanced s-network choice) and a deterministic breadth-first
        tree fill in place of the random join walk.  It is deterministic
        per seed but *not* message-equivalent to :meth:`build`, so small
        scales with golden baselines keep using the protocol build.

        Requires heartbeats off: liveness timers are armed by the join
        protocol this path skips.  Requires ``heterogeneity_aware`` off:
        the breadth-first fill has no Section 5.1 link-usage rule, so
        it would build the base tree under an aware config.
        """
        if self.config.heartbeats_enabled:
            raise ValueError("build_bulk requires heartbeats_enabled=False")
        if self.config.heterogeneity_aware:
            raise ValueError("build_bulk requires heterogeneity_aware=False")
        import heapq as _heapq
        from collections import deque

        from .config import ASSIGN_BALANCED

        t_list: List[HybridPeer] = []
        s_list: List[HybridPeer] = []
        for peer, role in self._create_peers(interests):
            (t_list if role == "t" else s_list).append(peer)
        if not t_list:
            raise ValueError("build_bulk needs at least one t-peer")

        # --- t-network: draw p_ids the way the server would, sort into
        # a ring, set the pointers the join triangle would have set.
        used_pids = set()
        for peer in t_list:
            pid = self.server.generate_pid(peer.address)
            while pid in used_pids:
                pid = self.server.generate_pid(peer.address)
            used_pids.add(pid)
            peer.p_id = pid
        t_list.sort(key=lambda p: p.p_id)
        n_t = len(t_list)
        for j, peer in enumerate(t_list):
            pred = t_list[(j - 1) % n_t]
            suc = t_list[(j + 1) % n_t]
            peer.role = "t"
            peer.t_peer = peer.address
            peer.predecessor, peer.predecessor_pid = pred.address, pred.p_id
            peer.successor, peer.successor_pid = suc.address, suc.p_id
            peer.segment_lo = pred.p_id
            peer.joined = True
            peer.join_latency = 0.0
            self.server.ring.insert(peer.p_id, peer.address)
            self.server.s_counts.setdefault(peer.address, 0)
            if peer.coordinate is not None:
                self.server.t_coords[peer.address] = tuple(peer.coordinate)
        self.server.t_count = n_t
        self.server.joins_served = n_t

        # --- s-networks: balanced assignment via a heap (same smallest-
        # count-then-address rule as the server's online policy, but
        # O(log n_t) per join); interest and landmark binning go through
        # the server's own chooser.  Tree fill is breadth-first under
        # the degree cap.
        balanced = self.config.assignment == ASSIGN_BALANCED and not self.landmarks
        heap = [(0, p.address) for p in t_list]
        _heapq.heapify(heap)
        slots: Dict[int, deque] = {p.address: deque([p.address]) for p in t_list}
        for peer in s_list:
            if balanced:
                count, anchor = _heapq.heappop(heap)
                _heapq.heappush(heap, (count + 1, anchor))
            else:
                anchor = self.server.choose_snetwork(peer.interest, peer.coordinate)
            anchor_peer = self.peers[anchor]
            queue = slots[anchor]
            while True:
                cand = self.peers[queue[0]]
                spare = self.config.delta - len(cand.children)
                if cand.role == "s":
                    spare -= 1  # the cp link occupies one degree slot
                    if not cand.children:
                        spare = max(spare, 1)  # leaf takes its first child
                if spare > 0:
                    parent = cand
                    break
                queue.popleft()
            queue.append(peer.address)
            parent.children.add(peer.address)
            peer.role = "s"
            peer.cp = parent.address
            peer.t_peer = anchor
            peer.p_id = anchor_peer.p_id
            peer.segment_lo = anchor_peer.predecessor_pid
            peer.joined = True
            peer.join_latency = 0.0
            self.server.s_counts[anchor] = self.server.s_counts.get(anchor, 0) + 1
            self.server.s_count += 1
            self.server.joins_served += 1
        self._finish_build()

    def add_peer(self, interest: Optional[str] = None, wait: bool = True) -> HybridPeer:
        """Dynamically join one more peer (role decided by the server)."""
        host_rng = self.rngs.stream("placement")
        used = {p.host for p in self.peers.values()} | {self.server_host}
        free = [h for h in range(self.topology.n) if h not in used]
        if free:
            host = int(free[int(host_rng.integers(0, len(free)))])
        else:  # more peers than hosts: share
            host = int(host_rng.integers(0, self.topology.n))
        # Per-address capacity; the model grows on demand for late joiners.
        capacity = self.capacities.capacity(self._next_address)
        peer = self._new_peer(host, capacity, interest)
        peer.begin_join()
        if wait:
            self.engine.run_while(lambda: not peer.joined)
        return peer

    def install_fingers(self) -> None:
        """Install consistent finger tables on every t-peer.

        Stands in for Chord's background stabilization protocol (which
        the paper assumes but does not simulate): finger ``k`` of a
        t-peer points at the owner of ``p_id + 2**k``.
        """
        ring = self.server.ring
        members = ring.members()
        pids = ring.pids
        n, bits, mask = len(members), self.idspace.bits, self.idspace._mask
        for j, (p_id, address) in enumerate(members):
            peer = self.peers.get(address)
            if peer is None or peer.role != "t" or not peer.alive:
                continue
            # Every finger whose start still lies in (p_id, suc_pid]
            # resolves to the successor: enter it once and probe from
            # the first power of two that clears the gap.
            suc_pid, suc_addr = members[(j + 1) % n]
            fingers = [(suc_pid, suc_addr)] if suc_addr != address else []
            seen = {address, suc_addr}
            gap = (suc_pid - p_id) & mask
            for k in range(gap.bit_length(), bits):
                # ``ring.owner_of(finger_start(p_id, k))``, inlined.
                i = bisect_left(pids, (p_id + (1 << k)) & mask) % n
                f_pid, f_addr = members[i]
                if f_addr not in seen:
                    seen.add(f_addr)
                    fingers.append((f_pid, f_addr))
            peer.set_fingers(fingers)

    def _wire_mesh(self) -> None:
        """Mesh ablation: add extra intra-s-network links (Section 3.2.2
        argues trees beat meshes on duplicate deliveries; this lets the
        benchmark verify that claim)."""
        rng = self.rngs.stream("mesh")
        groups: Dict[int, List[int]] = {}
        for peer in self.peers.values():
            if peer.role == "s":
                groups.setdefault(peer.t_peer, []).append(peer.address)
        for t_addr, members in groups.items():
            pool = members + [t_addr]
            if len(pool) < 3:
                continue
            for addr in members:
                peer = self.peers[addr]
                for _ in range(self.config.mesh_extra_links):
                    other = int(pool[int(rng.integers(0, len(pool)))])
                    if other == addr or other in peer.tree_neighbors():
                        continue
                    peer.extra_links.add(other)
                    self.peers[other].extra_links.add(addr)

    # ------------------------------------------------------------------
    # Data plane driving
    # ------------------------------------------------------------------
    def store_from(self, origin: int, key: str, value) -> None:
        """Issue one store from a given peer (does not pump the engine)."""
        self._issued_stores += 1
        self.peers[origin].store(key, value)

    def populate(
        self,
        items: Iterable[Tuple[int, str, object]],
        drain: bool = True,
        max_events: int = 50_000_000,
    ) -> int:
        """Insert ``(origin_address, key, value)`` items; returns count.

        With ``drain=True`` the engine runs until every item reached its
        final holder (tracked via the ``data.stored`` trace event).
        """
        count = 0
        for origin, key, value in items:
            self.store_from(origin, key, value)
            count += 1
        if drain:
            self.engine.run_while(
                lambda: self._stored_count < self._issued_stores, max_events
            )
            # Every item has a holder, but side-channel confirmations
            # (BitTorrent tracker registrations, store acks for bypass
            # links) may still be in flight -- and the paper assumes
            # "the data are inserted to the system before it is looked
            # up", so settle them too.
            if self.config.heartbeats_enabled or self.config.replica_sync_period > 0:
                # Periodic timers (HELLO, anti-entropy) keep the event
                # heap non-empty forever; advance time instead.
                self.settle(5_000.0)
            else:
                self.engine.run()
        return count

    def run_lookups(
        self,
        pairs: Iterable[Tuple[int, str]],
        wave_size: int = 200,
        max_events: int = 200_000_000,
    ) -> None:
        """Issue ``(origin_address, key)`` lookups in concurrent waves.

        Each wave is pumped until fully resolved (success or timer
        expiry) before the next is issued, bounding the number of
        simultaneously in-flight floods the way a paced workload would.
        """
        wave: List[Tuple[int, str]] = []

        def flush() -> None:
            for origin, key in wave:
                peer = self.peers[origin]
                if peer.alive:
                    peer.lookup(key)
            wave.clear()
            self.engine.run_while(lambda: self.queries.unresolved > 0, max_events)

        for pair in pairs:
            wave.append(pair)
            if len(wave) >= wave_size:
                flush()
        if wave:
            flush()

    # ------------------------------------------------------------------
    # Churn driving
    # ------------------------------------------------------------------
    def crash_peers(self, addresses: Iterable[int]) -> int:
        """Abruptly kill the given peers (no notifications, data lost)."""
        n = 0
        for addr in addresses:
            peer = self.peers.get(addr)
            if peer is not None and peer.alive:
                peer.crash()
                n += 1
        return n

    def crash_random_fraction(self, fraction: float) -> List[int]:
        """Crash a random fraction of alive peers; returns their addresses."""
        if not (0.0 <= fraction <= 1.0):
            raise ValueError("fraction must be in [0, 1]")
        rng = self.rngs.stream("churn")
        alive = [a for a, p in self.peers.items() if p.alive]
        k = int(round(fraction * len(alive)))
        chosen = [int(a) for a in rng.choice(alive, size=k, replace=False)] if k else []
        self.crash_peers(chosen)
        return chosen

    def leave_peers(self, addresses: Iterable[int], wait: bool = True) -> None:
        """Gracefully remove peers (protocol-driven departure)."""
        targets = [self.peers[a] for a in addresses if a in self.peers]
        for peer in targets:
            if peer.alive:
                peer.leave()
        if wait:
            self.engine.run_while(
                lambda: any(p.alive and (p.leaving or p.want_leave) for p in targets)
            )

    def settle(self, duration: float) -> None:
        """Advance simulated time (lets detection/repair/elections run)."""
        self.engine.run_until(self.engine.now + duration)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def alive_peers(self) -> List[HybridPeer]:
        return [p for p in self.peers.values() if p.alive]

    def t_peers(self) -> List[HybridPeer]:
        return [p for p in self.alive_peers() if p.role == "t"]

    def s_peers(self) -> List[HybridPeer]:
        return [p for p in self.alive_peers() if p.role == "s"]

    def query_stats(self) -> QueryStats:
        return self.queries.stats()

    def join_latencies(self) -> Dict[str, np.ndarray]:
        """Measured join latencies, split by role."""
        t = [p.join_latency for p in self.peers.values() if p.role == "t" and p.joined]
        s = [p.join_latency for p in self.peers.values() if p.role == "s" and p.joined]
        return {"t": np.asarray(t, dtype=float), "s": np.asarray(s, dtype=float)}

    def data_distribution(self) -> np.ndarray:
        """Items per alive peer (the Fig. 4 quantity)."""
        return np.asarray([len(p.database) for p in self.alive_peers()], dtype=int)

    def total_items(self) -> int:
        return int(sum(len(p.database) for p in self.alive_peers()))

    def total_replicas(self) -> int:
        """Copies in replica stores (repro.replica; 0 at k == 1)."""
        return int(sum(len(p._touched("replicas") or ()) for p in self.alive_peers()))

    def snetwork_sizes(self) -> Dict[int, int]:
        """s-peers per t-peer (anchor address -> member count)."""
        sizes: Dict[int, int] = {p.address: 0 for p in self.t_peers()}
        for peer in self.s_peers():
            sizes[peer.t_peer] = sizes.get(peer.t_peer, 0) + 1
        return sizes

    def ring_order(self) -> List[int]:
        """Alive t-peer addresses in ring (p_id) order, from live pointers."""
        t_peers = self.t_peers()
        if not t_peers:
            return []
        start = min(t_peers, key=lambda p: p.p_id)
        order = [start.address]
        cur = self.peers.get(start.successor)
        hops = 0
        while cur is not None and cur.address != start.address and hops <= len(self.peers):
            order.append(cur.address)
            cur = self.peers.get(cur.successor)
            hops += 1
        return order
