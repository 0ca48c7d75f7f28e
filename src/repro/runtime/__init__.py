"""Live runtime: the hybrid overlay over real asyncio TCP.

The protocol core (:mod:`repro.core`, :mod:`repro.overlay`) is shared
verbatim with the simulator; this package swaps the plumbing:

==================  =============================  ==========================
surface             simulator                      live runtime
==================  =============================  ==========================
timers              :class:`repro.sim.engine.Engine`  :class:`~repro.runtime.loop_engine.LoopEngine`
message delivery    :class:`repro.overlay.transport.Transport`  :class:`~repro.runtime.aio_transport.AioTransport`
addresses           arbitrary ints                 packed ``(ip, port)`` endpoints
wire format         (none -- in-process objects)   :mod:`repro.runtime.codec`
==================  =============================  ==========================

Entry points: ``repro serve`` / ``repro node`` / ``repro put`` /
``repro get`` / ``repro status`` / ``repro top`` on the CLI,
:class:`~repro.runtime.localnet.LocalNet` for in-process multi-node
tests.  Every daemon also serves ``/metrics`` + ``/healthz`` over HTTP
on its protocol port (see :mod:`repro.obs` and docs/OBSERVABILITY.md).
"""

from .aio_transport import AioTransport
from .bootstrap import BootstrapNode
from .client import (
    ClientConnection,
    ClientGet,
    ClientGetFile,
    ClientGetPiece,
    ClientPieceReply,
    ClientPut,
    ClientPutFile,
    ClientPutPiece,
    ClientReply,
    ClientStatus,
    acall,
    call,
    get_file,
    put_file,
    runtime_codec,
)
from .codec import (
    WIRE_VERSION,
    CodecError,
    MessageCodec,
    default_codec,
    format_endpoint,
    pack_endpoint,
    unpack_endpoint,
)
from .localnet import LocalNet, fast_config
from .loop_engine import LoopEngine
from .node import NodeDaemon, PeerNode, RuntimePeer

__all__ = [
    "AioTransport",
    "BootstrapNode",
    "ClientConnection",
    "ClientGet",
    "ClientGetFile",
    "ClientGetPiece",
    "ClientPieceReply",
    "ClientPut",
    "ClientPutFile",
    "ClientPutPiece",
    "ClientReply",
    "ClientStatus",
    "CodecError",
    "LocalNet",
    "LoopEngine",
    "MessageCodec",
    "NodeDaemon",
    "PeerNode",
    "RuntimePeer",
    "WIRE_VERSION",
    "acall",
    "call",
    "default_codec",
    "fast_config",
    "format_endpoint",
    "get_file",
    "pack_endpoint",
    "put_file",
    "runtime_codec",
    "unpack_endpoint",
]
