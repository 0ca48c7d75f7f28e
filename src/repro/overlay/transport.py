"""Overlay message transport.

Delivers messages between overlay actors (peers, the bootstrap server)
over the physical network: each overlay hop corresponds to the physical
shortest path between the two hosts, so its delay is

``path propagation latency + message size / bottleneck access capacity``

(the second term only when a capacity model is installed; Section 5.1).

Messages to dead or unknown addresses are silently dropped -- that is
exactly how a crashed peer manifests to the rest of the system.  A
delivery is one event: the engine calls the destination's ``receive``
directly (see :class:`Actor`), there is no transport frame in between.

One delivery path: :meth:`Transport.send` inlines the delay model,
memoizes each ``(src, dst, size)`` delay and per-address access
capacities (both invalidated on ``register``) and per-source-host
latency rows (the only row cache; a row is a view of the router's
table, not a copy), and pushes the delivery onto the engine's heap
directly.  A flood or tree broadcast (``send_many``) is the inherited
loop of ``send`` calls: the paper's trees cap the degree at three, so
fan-outs are small and rare next to the ring walk's unicast hops.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, Dict, Iterable, Optional, Protocol, Sequence

from ..net.routing import Router
from ..net.stress import LinkStress
from ..sim.engine import Engine
from ..sim.trace import TraceBus
from .messages import Message

__all__ = ["Actor", "TransportBase", "Transport"]


class Actor(Protocol):
    """Anything addressable on the overlay.

    ``receive`` is the callable the simulator's :class:`Transport`
    schedules for every delivery, bound when the message is sent, so it
    owns the arrival-side rules: an actor that died while the message
    was in flight counts it in ``transport.messages_dropped`` and does
    nothing else; a live one counts ``transport.messages_delivered``
    and handles it.  :class:`~repro.overlay.peer.BasePeer` implements
    exactly that.
    """

    address: int
    host: int
    alive: bool
    transport: TransportBase

    def receive(self, msg: Message) -> None:  # pragma: no cover - protocol
        ...


class TransportBase:
    """The transport surface the protocol core programs against.

    Two implementations exist: the simulator's :class:`Transport` below
    (delay-modelled delivery through the event heap) and the live
    runtime's :class:`~repro.runtime.aio_transport.AioTransport` (real
    TCP sockets on an asyncio loop).  Peers and the bootstrap server
    only ever touch this surface -- ``send`` / ``send_many`` plus the
    registry queries -- which is what lets the same protocol code run
    bit-identically in simulation and as a live network.

    Contract notes shared by both backends:

    * ``send`` fills in ``msg.sender`` from ``src.address`` before
      delivery and returns False when the message was dropped at send
      time (unknown/dead destination);
    * ``send_many`` delivers the *same* message object (or its encoding)
      to every destination, so receivers must treat messages as
      immutable -- the protocol code already does;
    * ``is_reachable`` is a best-effort liveness hint; the live backend
      can only report what its last connection attempt observed;
    * both keep ``messages_delivered`` / ``messages_dropped`` counters
      that the receiving :class:`Actor` bumps on arrival.
    """

    def register(self, actor: Actor) -> None:
        raise NotImplementedError

    def actor(self, address: int) -> Optional[Actor]:
        raise NotImplementedError

    def is_reachable(self, address: int) -> bool:
        raise NotImplementedError

    def send(self, src: Actor, dst_address: int, msg: Message) -> bool:
        raise NotImplementedError

    def send_many(self, src: Actor, dst_addresses: Iterable[int], msg: Message) -> int:
        """Fan one message out as a loop of :meth:`send`; returns the
        number sent.  The simulator uses it as is; the live transport
        overrides it to encode the message once."""
        sent = 0
        for dst_address in dst_addresses:
            if self.send(src, dst_address, msg):
                sent += 1
        return sent


class Transport(TransportBase):
    """Address registry + delay model + delivery scheduler.

    :meth:`send` is the only delivery path: floods and tree broadcasts
    go through the inherited :meth:`TransportBase.send_many`, one
    ``send`` per destination in iteration order.

    Parameters
    ----------
    engine:
        The simulation engine used for delayed delivery.
    router:
        Physical routing table; when None every hop costs
        ``default_latency`` (useful for protocol unit tests).
    capacity_of:
        Optional map from actor address to access-link capacity; enables
        the heterogeneity-aware transfer-delay term.  Results are
        memoized per address until that address re-registers.
    stress:
        Optional link-stress accountant (records every physical link a
        message crosses); implies per-message path extraction, so leave
        it off for large sweeps unless stress is being measured.
    trace:
        Optional trace bus; publishes a ``transport.send`` record per
        message when someone subscribed to that category.
    """

    def __init__(
        self,
        engine: Engine,
        router: Optional[Router] = None,
        capacity_of: Optional[Callable[[int], float]] = None,
        stress: Optional[LinkStress] = None,
        trace: Optional[TraceBus] = None,
        default_latency: float = 1.0,
        min_latency: float = 0.05,
    ) -> None:
        if default_latency <= 0 or min_latency <= 0:
            raise ValueError("latencies must be positive")
        self._engine = engine
        self._router = router
        self._capacity_of = capacity_of
        self._stress = stress
        self._trace = trace
        self.default_latency = default_latency
        self.min_latency = min_latency
        self._actors: Dict[int, Actor] = {}
        self._cap_cache: Dict[int, float] = {}
        self._rows: Dict[int, Sequence[float]] = {}  # src host -> latency row view
        # Memoized end-to-end delays keyed by (src addr, dst addr,
        # size): overlay links are traversed over and over (every ring
        # walk crosses the same edges), and the delay of a link is a
        # pure function of the two endpoints and the message size.
        # Invalidated wholesale whenever the registry changes.
        self._delay_cache: Dict[tuple, float] = {}
        # messages_delivered and the in-flight share of messages_dropped
        # are counted by the receiving actor (see Actor).
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        # Sharded execution hook (repro.shard): when set, called with
        # (deliver_time, dst_address, msg) after the delay model has run;
        # returning True means the destination lives on another shard and
        # the delivery was captured for cross-shard forwarding instead of
        # being scheduled on the local heap.  Sender-side accounting
        # (messages_sent, traces, stress) has already
        # happened at that point, exactly as in the single-process run.
        self._shard_capture: Optional[Callable[[float, int, Message], bool]] = None

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def register(self, actor: Actor) -> None:
        """Make ``actor`` reachable at ``actor.address``."""
        if actor.address in self._actors:
            raise ValueError(f"address {actor.address} already registered")
        self._actors[actor.address] = actor
        # The address may be reused by a different peer (churn): the
        # memoized capacities and delays no longer apply.
        self._cap_cache.pop(actor.address, None)
        self._delay_cache.clear()

    def close(self) -> None:
        """Forget every actor, memo and callback into the owning system."""
        self._actors.clear()
        self._cap_cache.clear()
        self._rows.clear()
        self._delay_cache.clear()
        self._capacity_of = None
        self._shard_capture = None

    def actor(self, address: int) -> Optional[Actor]:
        """The actor at ``address``, or None."""
        return self._actors.get(address)

    def is_reachable(self, address: int) -> bool:
        actor = self._actors.get(address)
        return actor is not None and actor.alive

    def __len__(self) -> int:
        return len(self._actors)

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def send(self, src: Actor, dst_address: int, msg: Message) -> bool:
        """Schedule delivery of ``msg`` from ``src`` to ``dst_address``.

        Returns False (and drops the message) when the destination is
        unknown or dead at send time; if it dies while the message is in
        flight, its ``receive`` drops and counts it on arrival.
        """
        self.messages_sent += 1
        dst = self._actors.get(dst_address)
        if dst is None or not dst.alive:
            self.messages_dropped += 1
            return False
        src_address = src.address
        msg.sender = src_address
        size = msg.size
        # Delay model, inlined and memoized: this runs once per
        # simulated message, and most messages retrace known links.
        delay_key = (src_address, dst_address, size)
        prop = self._delay_cache.get(delay_key)
        router = self._router
        if prop is None:
            if router is not None:
                rows = self._rows
                src_host = src.host
                row = rows.get(src_host)
                if row is None:
                    row = rows[src_host] = router.latency_row(src_host)
                prop = row[dst.host]
            else:
                prop = self.default_latency
            if prop < self.min_latency:
                prop = self.min_latency
            capacity_of = self._capacity_of
            if capacity_of is not None:
                cache = self._cap_cache
                cap_src = cache.get(src_address)
                if cap_src is None:
                    cap_src = cache[src_address] = capacity_of(src_address)
                cap_dst = cache.get(dst_address)
                if cap_dst is None:
                    cap_dst = cache[dst_address] = capacity_of(dst_address)
                prop += size / (cap_dst if cap_dst < cap_src else cap_src)
            self._delay_cache[delay_key] = prop
        if self._stress is not None and router is not None:
            self._stress.record_path(router.path_edges(src.host, dst.host))
        trace = self._trace
        if trace is not None and "transport.send" in trace.wanted:
            trace.publish(
                self._engine.now,
                "transport.send",
                src=src.address,
                dst=dst_address,
                kind=type(msg).__name__,
                delay=prop,
            )
        # Engine.schedule_at, inlined (one frame per simulated message):
        # ``prop >= min_latency > 0`` so the past-time guard is
        # statically satisfied.
        engine = self._engine
        capture = self._shard_capture
        if capture is not None and capture(engine._now + prop, dst_address, msg):
            return True
        heappush(engine._heap, (engine._now + prop, engine._seq, dst.receive, (msg,)))
        engine._seq += 1
        return True
