"""Base peer machinery shared by all overlay nodes.

A :class:`BasePeer` is an addressable actor attached to a physical
host.  Its class owns a mailbox dispatch table (message class ->
``on_<ClassName>`` function discovered by reflection, one table per
peer class); the hybrid peer, the bootstrap server and the live
runtime's peer all inherit from it.
"""

from __future__ import annotations

from typing import Any, Optional

from ..sim.engine import Engine
from ..sim.trace import TraceBus
from .idspace import IdSpace
from .messages import Message
from .transport import TransportBase

__all__ = ["BasePeer"]


class BasePeer:
    """An addressable protocol participant.

    Parameters
    ----------
    address:
        Unique overlay address (stand-in for an IP; the live runtime
        packs a real ``(ip, port)`` endpoint into this int).
    host:
        Physical node this peer resides on (0 in the live runtime).
    engine, transport, idspace:
        Shared plumbing.  ``engine`` is anything with the
        :class:`~repro.sim.engine.Engine` timer surface (``now`` /
        ``call_later``); ``transport`` any
        :class:`~repro.overlay.transport.TransportBase`.
    trace:
        Optional trace bus for metrics/tests.

    Subclasses implement handlers named ``on_<MessageClassName>``; the
    dispatch table is built once per class, on its first instance, and
    shared by every instance (a peer carries no table of its own).
    """

    def __init__(
        self,
        address: int,
        host: int,
        engine: Engine,
        transport: TransportBase,
        idspace: IdSpace,
        trace: Optional[TraceBus] = None,
    ) -> None:
        self.address = address
        self.host = host
        self.engine = engine
        self.transport = transport
        self.idspace = idspace
        self.trace = trace
        self.alive = True
        self.messages_received = 0
        if "_dispatch" not in type(self).__dict__:
            self._build_dispatch()

    # ------------------------------------------------------------------
    @classmethod
    def _build_dispatch(cls) -> None:
        # {message name | message class -> plain ``on_*`` function}, set on
        # the concrete class, so a subclass overriding a handler gets its
        # own table; ``getattr`` on the class resolves the MRO once and
        # yields the plain function ``receive`` calls with self.
        cls._dispatch = {
            name[3:]: getattr(cls, name)
            for name in dir(cls)
            if name.startswith("on_") and callable(getattr(cls, name))
        }

    # ------------------------------------------------------------------
    def send(self, dst_address: int, msg: Message) -> bool:
        """Send a message through the transport (ring hops call
        ``transport.send`` directly: one Python frame less)."""
        return self.transport.send(self, dst_address, msg)

    def send_many(self, dst_addresses, msg: Message) -> int:
        """Fan one message out (floods, tree broadcasts); the simulator's
        transport sends it to each destination with ``send``."""
        return self.transport.send_many(self, dst_addresses, msg)

    def receive(self, msg: Message) -> None:
        """Dispatch an incoming message to its ``on_*`` handler.

        The engine calls this for every delivery (the
        :class:`~repro.overlay.transport.Actor` contract): a message
        that was in flight when this peer died is dropped and counted
        here.
        """
        transport = self.transport
        if not self.alive:
            transport.messages_dropped += 1
            return
        transport.messages_delivered += 1
        self.messages_received += 1
        dispatch = self._dispatch
        cls = type(msg)
        try:
            handler = dispatch[cls]
        except KeyError:
            # First message of this class: resolve by name, then memoize
            # under the class itself so steady-state dispatch hashes a
            # type instead of a string.
            handler = dispatch.get(cls.__name__)
            if handler is None:
                self.unhandled(msg)
                return
            dispatch[cls] = handler
        handler(self, msg)

    def unhandled(self, msg: Message) -> None:
        """Hook for messages with no handler; loud by default.

        Protocol bugs where a peer in the wrong role receives a message
        should fail fast in tests rather than vanish.
        """
        raise NotImplementedError(
            f"{type(self).__name__} at {self.address} has no handler for "
            f"{type(msg).__name__}"
        )

    # ------------------------------------------------------------------
    def emit(self, category: str, **payload: Any) -> None:
        """Publish a trace record (no-op unless someone wants ``category``)."""
        if self.trace is not None and self.trace.wants(category):
            self.trace.publish(self.engine.now, category, peer=self.address, **payload)

    def wants_trace(self, category: str) -> bool:
        """Would ``emit(category, ...)`` reach a listener?

        ``emit()`` evaluates its keyword arguments before its guard can
        run, so call sites with a payload to build ask this first.  The
        per-hop handlers spell the same test inline
        (``"category" in trace.wanted``) to save the call.
        """
        trace = self.trace
        return trace is not None and category in trace.wanted

    def crash(self) -> None:
        """Die abruptly: no notifications, in-flight messages undeliverable."""
        self.alive = False

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "up" if self.alive else "down"
        return f"<{type(self).__name__} addr={self.address} host={self.host} {state}>"
