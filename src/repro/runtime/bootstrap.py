"""The live bootstrap daemon: one :class:`BootstrapServer` over TCP.

Runs the *simulator's* server class unchanged; only the plumbing
differs.  Its packed listen endpoint becomes ``config.server_address``
for every peer that joins through it, which is all a peer needs to know
to enter the system (Section 3.2's "well-known server").
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from ..core.config import HybridConfig
from ..core.server import BootstrapServer
from ..overlay.idspace import IdSpace
from ..overlay.messages import Message
from .client import ClientReply, ClientStatus
from .node import NodeDaemon

__all__ = ["BootstrapNode"]


class BootstrapNode(NodeDaemon):
    """Daemon hosting the authoritative bootstrap/directory server."""

    def _make_actor(self) -> BootstrapServer:
        # The server's overlay address is wherever this daemon listens;
        # rewrite the config so the hosted server agrees with the
        # address peers will dial.
        self.config = self.config.with_changes(server_address=self.address)
        return BootstrapServer(
            host=0,
            engine=self.engine,
            transport=self.transport,
            idspace=IdSpace(),
            config=self.config,
            rng=np.random.default_rng(self.seed),
            trace=self.trace,
        )

    @property
    def server(self) -> BootstrapServer:
        return self.actor

    async def handle_client(self, msg: Message) -> ClientReply:
        if isinstance(msg, ClientStatus):
            payload = self.status_snapshot()
            if msg.include_metrics:
                payload["metrics"] = self.registry.snapshot()
            return ClientReply(ok=True, payload=payload)
        return await super().handle_client(msg)

    def status_snapshot(self) -> Dict[str, Any]:
        snap = self.server.directory_snapshot()
        snap["endpoint"] = f"{self.host}:{self.port}"
        snap["address"] = self.address
        snap["uptime_s"] = round(self.uptime(), 3)
        snap["codec"] = self.codec_snapshot()
        snap["codec_version"] = snap["codec"]["version"]
        return snap
