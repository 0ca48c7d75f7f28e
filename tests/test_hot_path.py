"""The shape of one ring hop, asserted without a clock.

A remote ``store``/``lookup`` is a successor walk around the t-network,
so what one forwarded hop executes is the per-event constant of the
whole simulation (DESIGN.md, "Message path").  These tests pin it from
the inside: the frames between the engine's run loop and the handler,
and every Python call the handler makes -- first with tracing,
heartbeats and fingers off, then with each one on.
"""

from __future__ import annotations

import os
import sys
from typing import List, NamedTuple, Optional

import pytest

from repro.core.hybridpeer import HybridPeer
from repro.overlay.messages import LookupRequest, Message, StoreRequest
from repro.sim.engine import Engine

from .conftest import build_system

SRC = os.path.dirname(os.path.dirname(sys.modules[Engine.__module__].__file__))
ENGINE_LOOPS = {fn.__code__ for fn in (Engine._drain, Engine.step)}


class Hop(NamedTuple):
    peer: HybridPeer
    msg: Message
    sender: int  # msg.sender on arrival (forwarding re-stamps the same object)
    time: float
    forwarded: bool  # a t-peer passing the request on around the ring
    frames: List[str]  # engine loop (exclusive) -> handler (exclusive)
    calls: List[str]  # every repro function entered, the handler first
    sent: int  # messages this hop put on the transport
    sender_timeout: Optional[float]  # msg.sender's crash deadline: time left after the hop


@pytest.fixture
def probe(monkeypatch):
    """Wrap the two ring-hop handlers in the peer class's dispatch table."""

    def install(system) -> List[Hop]:
        hops: List[Hop] = []
        table = type(system.t_peers()[0])._dispatch
        for cls in (StoreRequest, LookupRequest):

            def wrapped(peer, msg, real=table[cls.__name__]):
                frames, frame = [], sys._getframe(1)
                while frame.f_code not in ENGINE_LOOPS:
                    frames.append(frame.f_code.co_name)
                    frame = frame.f_back
                sender = msg.sender
                forwarded = peer.role == "t" and not peer.owns(msg.d_id)
                sent0 = system.transport.messages_sent
                calls: List[str] = []

                def on_call(frame, event, arg):
                    # repro's own functions only: a gc callback of some
                    # other library may fire anywhere.
                    if event == "call" and SRC in frame.f_code.co_filename:
                        calls.append(frame.f_code.co_name)

                sys.setprofile(on_call)
                try:
                    real(peer, msg)
                finally:
                    sys.setprofile(None)
                deadline = (peer._touched("neighbor_deadlines") or {}).get(sender)
                now = system.engine.now
                hops.append(Hop(
                    peer, msg, sender, now, forwarded, frames[::-1], calls,
                    system.transport.messages_sent - sent0,
                    deadline - now if deadline is not None else None,
                ))

            monkeypatch.setitem(table, cls, wrapped)
            monkeypatch.setitem(table, cls.__name__, wrapped)
        return hops

    return install


def far_request(system):
    """(origin t-peer, key owned by its ring predecessor): the longest walk."""
    origin = system.t_peers()[0]
    assert len(system.t_peers()) >= 3
    for i in range(10_000):
        key = f"far-{i}"
        _pid, owner = system.server.ring.owner_of(system.idspace.hash_key(key))
        if owner == origin.predecessor:
            return origin, key
    raise AssertionError("no key lands on the predecessor's segment")


def walk(system, probe, repeat: int = 1):
    """Store then look up one far key; returns (store hops, lookup hops)."""
    origin, key = far_request(system)
    hops = probe(system)
    system.populate([(origin.address, key, "v")])
    n_store = len(hops)
    system.run_lookups([(origin.address, key)] * repeat)
    assert system.query_stats().successes == repeat
    stores = [h for h in hops[:n_store] if h.forwarded]
    lookups = [h for h in hops[n_store:] if h.forwarded]
    assert len(stores) >= 2 and len(lookups) >= 2 * repeat
    return stores, lookups


def test_plain_hop_is_receive_handler_send(probe):
    system = build_system(p_s=0.5, n_peers=40)
    assert not system.config.heartbeats_enabled and not system.t_peers()[0].fingers
    assert "lookup.hop" not in system.trace.wanted
    stores, lookups = walk(system, probe)
    for hop in stores:
        assert hop.frames == ["receive"]
        assert hop.calls == ["on_StoreRequest", "send"]
        assert hop.sent == 1
    for hop in lookups:
        assert hop.frames == ["receive"]
        assert hop.calls == ["on_LookupRequest", "contact", "send"]
        assert hop.sent == 1
    # The plain walk follows successor pointers, one peer at a time.
    for here, there in zip(lookups, lookups[1:]):
        assert there.peer.address == here.peer.successor
        assert there.msg is here.msg and here.sender_timeout is None


def test_subscribed_listener_gets_one_record_per_hop(probe):
    system = build_system(p_s=0.5, n_peers=40)
    records = []
    system.trace.subscribe("lookup.hop", records.append)
    _stores, lookups = walk(system, probe)
    ring = [r for r in records if r.payload["kind"] == "ring"]
    # Every forwarded hop published one, plus the owner's final ring hop.
    assert [r.payload["peer"] for r in ring[:-1]] == [h.peer.address for h in lookups]
    assert [r.payload["hop"] for r in ring] == list(range(1, len(ring) + 1))
    for hop in lookups:
        assert hop.calls.count("emit") == hop.calls.count("publish") == 1
        assert hop.frames == ["receive"] and hop.sent == 1


def test_heartbeats_still_reset_the_timer_and_ack(probe):
    system = build_system(p_s=0.5, n_peers=40, heartbeats_enabled=True)
    config = system.config
    # Two identical lookups issued in the same instant ride the ring back
    # to back: the first one through a peer is acknowledged, the second
    # falls inside the suppress window; both push the sender's deadline
    # back, in place -- no timer object, no heap event.
    _stores, lookups = walk(system, probe, repeat=2)
    by_peer = {}
    for hop in lookups:
        assert hop.calls.count("note_query_activity") == 1
        assert "call_at" not in hop.calls and "call_later" not in hop.calls
        assert hop.sender_timeout == config.neighbor_timeout
        assert hop.frames == ["receive"]
        by_peer.setdefault(hop.peer.address, []).append(hop)
    for first, second in by_peer.values():
        assert first.time == second.time and first.sender == second.sender
        assert (first.sent, second.sent) == (2, 1)  # Ack + forward, then forward only


def test_finger_routing_still_routes_by_closest_preceding(probe):
    system = build_system(p_s=0.5, n_peers=40, ring_routing="finger")
    assert all(p.fingers for p in system.t_peers())
    expected = {}
    stores, lookups = walk(system, probe)
    for hops in (stores, lookups):
        for hop in hops:
            assert hop.frames == ["receive"] and hop.sent == 1
            assert hop.calls.count("ring_next_hop") == 1
            assert hop.calls.count("closest_preceding") == 1
            expected[hop.peer.address] = hop.peer.closest_preceding(hop.msg.d_id)
        for here, there in zip(hops, hops[1:]):
            assert there.peer.address == expected[here.peer.address]
    # Fingers jump: fewer hops than the successor walk's n_t - 2.
    assert len(lookups) < len(system.t_peers()) - 2
