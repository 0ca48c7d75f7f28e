"""Generic overlay primitives.

Shared by the simulated and the live hybrid system: the circular
identifier space (:mod:`~repro.overlay.idspace`), the protocol message
taxonomy (:mod:`~repro.overlay.messages`), the base peer with reflective
message dispatch (:mod:`~repro.overlay.peer`), and the transport that
delivers overlay messages across physical shortest paths
(:mod:`~repro.overlay.transport`).
"""

from .idspace import IdSpace
from .peer import BasePeer
from .transport import Actor, Transport

__all__ = ["IdSpace", "BasePeer", "Actor", "Transport"]
