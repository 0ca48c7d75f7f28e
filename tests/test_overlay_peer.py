"""Tests for the base peer (reflective dispatch) and message taxonomy."""

from __future__ import annotations

import dataclasses

import pytest

import repro.overlay.messages as messages_mod
from repro.overlay.idspace import IdSpace
from repro.overlay.messages import (
    CONTROL_SIZE,
    ITEM_SIZE,
    DataFound,
    Hello,
    LoadTransfer,
    Message,
    RoleHandoff,
    StoreRequest,
)
from repro.overlay.peer import BasePeer
from repro.overlay.transport import Transport
from repro.sim import Engine


class EchoPeer(BasePeer):
    """Minimal peer with one handler, for dispatch tests."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.hellos = []

    def on_Hello(self, msg: Hello) -> None:
        self.hellos.append(msg)


@pytest.fixture
def wired(engine, idspace):
    transport = Transport(engine)
    a = EchoPeer(1, 0, engine, transport, idspace)
    b = EchoPeer(2, 0, engine, transport, idspace)
    transport.register(a)
    transport.register(b)
    return engine, transport, a, b


class TestDispatch:
    def test_handler_invoked(self, wired):
        engine, transport, a, b = wired
        a.send(2, Hello())
        engine.run()
        assert len(b.hellos) == 1
        assert b.messages_received == 1

    def test_unhandled_raises(self, wired):
        engine, transport, a, b = wired
        a.send(2, DataFound())
        with pytest.raises(NotImplementedError, match="DataFound"):
            engine.run()

    def test_dead_peer_ignores_messages(self, wired):
        engine, transport, a, b = wired
        a.send(2, Hello())
        b.alive = False  # dies while in flight: transport drops it
        engine.run()
        assert b.hellos == []

    def test_dispatch_table_cached_per_class(self, wired):
        engine, transport, a, b = wired
        # Reflection happens once per class: the table holds plain
        # functions, lives on the class side, and instances carry none.
        table = EchoPeer._dispatch
        assert table["Hello"] is EchoPeer.on_Hello
        assert "_dispatch" not in vars(a) and "_dispatch" not in vars(b)
        a.send(2, Hello())
        b.send(1, Hello())
        engine.run()
        assert len(a.hellos) == len(b.hellos) == 1
        assert EchoPeer._dispatch is table  # still one, shared
        assert table[Hello] is EchoPeer.on_Hello  # memoized under the class

    def test_subclass_override_gets_its_own_table(self, engine, idspace):
        class LoudPeer(EchoPeer):
            def on_Hello(self, msg: Hello) -> None:
                self.hellos.append("loud")

        transport = Transport(engine)
        plain = EchoPeer(1, 0, engine, transport, idspace)
        loud = LoudPeer(2, 0, engine, transport, idspace)
        transport.register(plain)
        transport.register(loud)
        plain.send(2, Hello())
        loud.send(1, Hello())
        plain.send(2, DataFound())
        with pytest.raises(NotImplementedError, match="LoudPeer.*DataFound"):
            engine.run()
        assert loud.hellos == ["loud"]
        assert len(plain.hellos) == 1 and isinstance(plain.hellos[0], Hello)
        assert LoudPeer._dispatch is not EchoPeer._dispatch
        assert LoudPeer._dispatch["Hello"] is LoudPeer.on_Hello

    def test_emit_noop_without_listeners(self, wired):
        engine, transport, a, b = wired
        a.emit("anything", x=1)  # no trace bus: must not raise


class TestMessageSizes:
    def test_control_messages_are_small(self):
        assert Hello().size == CONTROL_SIZE

    def test_store_carries_item(self):
        assert StoreRequest().size == CONTROL_SIZE + ITEM_SIZE

    def test_bulk_transfer_scales_with_items(self):
        items = tuple((f"k{i}", i, 0) for i in range(5))
        assert LoadTransfer(items=items).size == CONTROL_SIZE + 5 * ITEM_SIZE
        assert LoadTransfer().size == CONTROL_SIZE

    def test_handoff_scales_with_items(self):
        items = tuple((f"k{i}", i, 0) for i in range(3))
        assert RoleHandoff(items=items).size == CONTROL_SIZE + 3 * ITEM_SIZE

    def test_sender_default_unset(self):
        assert Hello().sender == -1


class TestTaxonomyHygiene:
    def test_every_exported_message_is_a_dataclass_message(self):
        for name in messages_mod.__all__:
            obj = getattr(messages_mod, name)
            if isinstance(obj, type) and issubclass(obj, Message) and obj is not Message:
                assert dataclasses.is_dataclass(obj), name
                obj()  # constructible with defaults

    def test_message_names_match_handler_convention(self):
        """Every handler of every peer composition must name a real
        message class."""
        from .test_peer_composition import every_peer_class

        message_names = {
            name
            for name in messages_mod.__all__
            if isinstance(getattr(messages_mod, name), type)
        }
        for combo, cls in every_peer_class():
            for attr in dir(cls):
                if attr.startswith("on_"):
                    assert attr[3:] in message_names, f"{combo}: {attr} has no message class"

    def test_only_reserved_wire_ids_have_no_handler(self):
        """Every message is handled by the server or by the peer with
        every feature on, except the reserved wire ids: kept so no
        other id moves, and never sent."""
        from repro.core.hybridpeer import peer_class
        from repro.core.server import BootstrapServer

        from .test_peer_composition import FEATURE_KWARGS, config_with

        handled = {
            attr[3:]
            for cls in (BootstrapServer, peer_class(config_with(*FEATURE_KWARGS)))
            for attr in dir(cls)
            if attr.startswith("on_")
        }
        unhandled = {cls.__name__ for cls in messages_mod.wire_types()} - handled
        assert unhandled == {
            "TLeaveRequest", "PartialQuery", "PartialResult", "ReplicaPush",
            "BTRegister", "BTLookup", "BTFetch",
        }
