"""Unit tests for the overlay transport."""

from __future__ import annotations

import pytest

from repro.net import LinkStress, NodeKind, PhysicalTopology, Router
from repro.overlay.idspace import IdSpace
from repro.overlay.messages import Hello, LoadTransfer, Message
from repro.overlay.peer import BasePeer
from repro.overlay.transport import Transport
from repro.sim import Engine


class StubActor:
    """The smallest thing that honours the ``Actor`` contract: ``receive``
    is what the engine calls, so it does the arrival-side counting."""

    def __init__(self, address: int, host: int = 0, transport: Transport = None) -> None:
        self.address = address
        self.host = host
        self.alive = True
        self.transport = transport
        self.inbox = []

    def receive(self, msg: Message) -> None:
        if not self.alive:
            self.transport.messages_dropped += 1
            return
        self.transport.messages_delivered += 1
        self.inbox.append(msg)


class InboxPeer(BasePeer):
    """A real ``BasePeer`` with one handler, for the same cases."""

    def __init__(self, address: int, transport: Transport) -> None:
        super().__init__(address, 0, transport._engine, transport, IdSpace(16))
        self.inbox = []

    def on_Hello(self, msg: Hello) -> None:
        self.inbox.append(msg)


def wire(tr: Transport, actor_cls, *addresses):
    actors = [actor_cls(a, transport=tr) for a in addresses]
    for actor in actors:
        tr.register(actor)
    return actors


def line_topology() -> PhysicalTopology:
    return PhysicalTopology(
        n=3,
        edges=[(0, 1, 10.0), (1, 2, 20.0)],
        kind=[NodeKind.TRANSIT] * 3,
        domain=[0] * 3,
        transit_attachment=[0, 1, 2],
    )


class TestDelivery:
    def test_basic_delivery(self, engine):
        tr = Transport(engine)
        a, b = wire(tr, StubActor, 1, 2)
        assert tr.send(a, 2, Hello())
        engine.run()
        assert len(b.inbox) == 1
        assert b.inbox[0].sender == 1

    def test_delay_uses_router(self, engine):
        tr = Transport(engine, router=Router(line_topology()))
        a, b = StubActor(1, host=0, transport=tr), StubActor(2, host=2, transport=tr)
        tr.register(a)
        tr.register(b)
        tr.send(a, 2, Hello())
        engine.run()
        assert engine.now == pytest.approx(30.0)

    def test_capacity_adds_transfer_delay(self, engine):
        tr = Transport(
            engine,
            router=Router(line_topology()),
            capacity_of=lambda addr: 2.0 if addr == 1 else 0.5,
        )
        a, b = StubActor(1, host=0, transport=tr), StubActor(2, host=1, transport=tr)
        tr.register(a)
        tr.register(b)
        msg = LoadTransfer(items=(("k", "v", 0),))  # size = 1 + 10
        tr.send(a, 2, msg)
        engine.run()
        # 10 propagation + 11 / min(2.0, 0.5)
        assert engine.now == pytest.approx(10.0 + 22.0)

    def test_send_to_unknown_is_dropped(self, engine):
        tr = Transport(engine)
        a = StubActor(1)
        tr.register(a)
        assert not tr.send(a, 99, Hello())
        assert tr.messages_dropped == 1

    def test_send_to_dead_is_dropped(self, engine):
        tr = Transport(engine)
        a, b = wire(tr, StubActor, 1, 2)
        b.alive = False
        assert not tr.send(a, 2, Hello())
        engine.run()
        assert b.inbox == []

    def test_crash_while_in_flight_suppresses_delivery(self, engine):
        tr = Transport(engine)
        a, b = wire(tr, StubActor, 1, 2)
        tr.send(a, 2, Hello())
        b.alive = False  # dies before the message lands
        engine.run()
        assert b.inbox == []
        assert tr.messages_dropped == 1

    def test_duplicate_registration_rejected(self, engine):
        tr = Transport(engine)
        tr.register(StubActor(1))
        with pytest.raises(ValueError):
            tr.register(StubActor(1))

    def test_is_reachable(self, engine):
        tr = Transport(engine)
        a = StubActor(1)
        tr.register(a)
        assert tr.is_reachable(1)
        a.alive = False
        assert not tr.is_reachable(1)
        assert not tr.is_reachable(2)

    def test_min_latency_floor(self, engine):
        tr = Transport(engine, router=Router(line_topology()), min_latency=0.5)
        # same host
        a, b = StubActor(1, host=1, transport=tr), StubActor(2, host=1, transport=tr)
        tr.register(a)
        tr.register(b)
        tr.send(a, 2, Hello())
        engine.run()
        assert engine.now == pytest.approx(0.5)

    def test_stress_recorded(self, engine):
        stress = LinkStress()
        tr = Transport(engine, router=Router(line_topology()), stress=stress)
        a, b = StubActor(1, host=0), StubActor(2, host=2)
        tr.register(a)
        tr.register(b)
        tr.send(a, 2, Hello())
        assert stress.stress(0, 1) == 1
        assert stress.stress(1, 2) == 1

    def test_counters(self, engine):
        tr = Transport(engine)
        a, b = wire(tr, StubActor, 1, 2)
        tr.send(a, 2, Hello())
        tr.send(a, 7, Hello())
        engine.run()
        assert tr.messages_sent == 2
        assert tr.messages_delivered == 1
        assert tr.messages_dropped == 1


@pytest.mark.parametrize("actor_cls", [StubActor, InboxPeer])
class TestArrivalSideCounting:
    """The engine calls ``receive`` itself; the actor drops and counts."""

    def test_send_and_send_many_schedule_the_same_callable(self, engine, actor_cls):
        tr = Transport(engine)
        a, b = wire(tr, actor_cls, 1, 2)
        tr.send(a, 2, Hello())
        tr.send_many(a, [2], Hello())
        (_, _, fn1, args1), (_, _, fn2, args2) = sorted(engine._heap)
        assert fn1 == fn2 == b.receive
        assert len(args1) == len(args2) == 1

    def test_death_in_flight_after_send(self, engine, actor_cls):
        tr = Transport(engine)
        a, b = wire(tr, actor_cls, 1, 2)
        tr.send(a, 2, Hello())
        b.alive = False
        engine.run()
        assert b.inbox == []
        assert (tr.messages_sent, tr.messages_delivered, tr.messages_dropped) == (1, 0, 1)

    def test_death_in_flight_after_send_many(self, engine, actor_cls):
        tr = Transport(engine)
        a, b, c = wire(tr, actor_cls, 1, 2, 3)
        assert tr.send_many(a, [2, 3, 99], Hello()) == 2  # 99 drops at send
        c.alive = False  # one recipient dies before the fan-out lands
        engine.run()
        assert len(b.inbox) == 1 and c.inbox == []
        assert (tr.messages_sent, tr.messages_delivered, tr.messages_dropped) == (3, 1, 2)

    def test_every_sent_message_is_delivered_or_dropped(self, engine, actor_cls):
        tr = Transport(engine)
        a, b, c, d = wire(tr, actor_cls, 1, 2, 3, 4)
        d.alive = False  # dead at send time
        tr.send(a, 2, Hello())
        tr.send(a, 4, Hello())
        tr.send_many(a, [2, 3, 4, 99], Hello())
        tr.send(b, 3, Hello())
        c.alive = False  # two more die in flight
        engine.run()
        assert engine.pending_count == 0
        assert tr.messages_sent == 7
        assert tr.messages_sent == tr.messages_delivered + tr.messages_dropped
        assert tr.messages_delivered == len(b.inbox) == 2
