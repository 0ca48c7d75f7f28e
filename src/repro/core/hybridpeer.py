"""The hybrid peer: one class, two roles, composed from its config.

A :class:`HybridPeer` is an s-peer or a t-peer -- and may change role
over its lifetime (promotion on t-peer leave/crash), which is exactly
why the paper's design keeps the t-network cheap to maintain.  The core
protocol lives in the role mixins:

* :class:`~repro.core.tnetwork.TNetworkMixin` -- ring membership/routing,
* :class:`~repro.core.snetwork.SNetworkMixin` -- tree membership,
* :class:`~repro.core.dataplane.DataPlaneMixin` -- store/lookup (flood).

Each optional feature is a mixin too (:data:`FEATURES`); :func:`peer_class`
adds exactly the ones a config turns on, so a feature that is off has no
handler, state or branch (its messages reach ``unhandled``).  The core
reaches features through six no-op lifecycle hooks that the mixins
extend: their own part first, then ``super()``.

This module owns the *state* the core operates on, the join entry
point (contact the server, then run the t-join ring walk or the s-join
tree walk), and the public ``leave`` / ``crash`` lifecycle.

A peer costs what it uses: identity, ring/tree pointers and everything
read per message are set in ``__init__``; idle lifecycle state is a
class default until first written; each per-feature container (join
queue, flood dedup set, pending lookups, ...) is a
:func:`functools.cached_property` that lands in the instance dict on
first touch and is an ordinary attribute from then on (see DESIGN.md,
"Peer state").  Teardown paths go through :meth:`HybridPeer._touched`
so clearing state never creates it.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Any, Callable, Deque, Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from ..enhance.bypass import BypassMixin
from ..enhance.caching import CacheMixin, LruCache
from ..overlay.idspace import IdSpace
from ..overlay.messages import (
    LoadTransfer,
    ServerJoin,
    ServerJoinReply,
    ServerUpdate,
    SJoinRequest,
    TJoinRequest,
    TLeaveToPre,
)
from ..overlay.peer import BasePeer
from ..overlay.transport import Transport
from ..replica import ReplicationMixin
from ..swarm import SwarmMixin
from ..sim.engine import Engine
from ..sim.timers import Timer
from ..sim.trace import TraceBus
from .config import SEARCH_WALK, SNETWORK_BITTORRENT, HybridConfig
from .datastore import DataStore
from .dataplane import DataPlaneMixin
from .failures import LivenessMixin
from .lookup import QueryRegistry
from .search import WalkMixin
from .snetwork import MeshMixin, SNetworkMixin
from .tnetwork import TNetworkMixin

__all__ = ["FEATURES", "HybridPeer", "peer_class"]


class HybridPeer(TNetworkMixin, SNetworkMixin, DataPlaneMixin, BasePeer):
    """A peer of the hybrid system (role "t" or "s"), no optional feature."""

    # What a per-hop handler tests for a feature that is off (one
    # attribute load each); the feature's mixin overrides it.
    _liveness = False  # LivenessMixin: acknowledge data queries
    cache: Optional[LruCache] = None  # CacheMixin
    extra_links: FrozenSet[int] = frozenset()  # MeshMixin

    # Idle in a steady-state cell: read from the class until first written.
    interest: Optional[str] = None
    coordinate: Optional[Tuple[int, ...]] = None
    join_request_time = float("nan")
    joining = False
    pending_join: Optional[Tuple[int, int]] = None
    leaving = False
    want_leave = False
    handoff_target = -1
    _handoff_timer: Optional[Timer] = None
    _rejoin_timer: Optional[Timer] = None
    # Departure-time load dump (acked + retried; see _depart_with_load).
    _dump_pending_id = -1
    _dump_next_id = 0
    _dump_timer: Optional[Timer] = None

    def __init__(
        self,
        address: int,
        host: int,
        engine: Engine,
        transport: Transport,
        idspace: IdSpace,
        config: HybridConfig,
        rng: np.random.Generator,
        queries: QueryRegistry,
        capacity: float = 1.0,
        interest: Optional[str] = None,
        coordinate: Optional[Tuple[int, ...]] = None,
        trace: Optional[TraceBus] = None,
    ) -> None:
        super().__init__(address, host, engine, transport, idspace, trace)
        self.config = config
        self.rng = rng
        self.queries = queries
        self.capacity = capacity

        # --- lifecycle -------------------------------------------------
        self.role: str = "new"
        self.joined = False
        self.join_latency = float("nan")

        # --- ring state (role "t") --------------------------------------
        self.p_id = -1
        self.predecessor = -1
        self.predecessor_pid = -1
        self.successor = -1
        self.successor_pid = -1
        self.fingers: List[Tuple[int, int]] = []

        # --- tree state --------------------------------------------------
        self.t_peer = -1
        self.cp = -1
        self.children: Set[int] = set()
        self.segment_lo = -1

        # --- data plane -----------------------------------------------------
        self.database = DataStore(idspace)
        self.answers_served = 0  # queries this peer answered (db or cache)

        if "_keys_reserved" not in type(self).__dict__:
            # CPython fixes a class's shared instance keys with its first
            # few instances; a name past them costs a peer a ~1.6 KB dict.
            # Enter the lookup path's containers, then the optional names
            # (these may spill, the core ones not; DESIGN.md, "Peer state").
            for name in ("pending_lookups", "seen_queries"):
                setattr(self, name, None)
                delattr(self, name)
            type(self)._keys_reserved = True
        if interest is not None:
            self.interest = interest
        if coordinate is not None:
            self.coordinate = coordinate

    @property
    def server_address(self) -> int:
        """The well-known bootstrap server's address."""
        return self.config.server_address

    # ------------------------------------------------------------------
    # State created on first use (feature mixins declare theirs alike)
    # ------------------------------------------------------------------
    @cached_property
    def join_queue(self) -> Deque[TJoinRequest]:
        """t-joins queued behind the one in progress."""
        return deque()

    @cached_property
    def deferred_leaves(self) -> List[TLeaveToPre]:
        """Successor leaves deferred while a join is in progress."""
        return []

    @cached_property
    def seen_queries(self) -> Set[Tuple[int, int]]:
        """Flood / walk dedup: ``(query id, attempt)`` already handled."""
        return set()

    @cached_property
    def pending_lookups(self) -> Dict[int, Any]:
        """Lookups this peer originated that are still in flight."""
        return {}

    def _touched(self, name: str) -> Any:
        """The lazy container ``name`` if it was ever used, else ``None``.

        For paths that only drain or clear (shutdown, accounting):
        reading the attribute itself would create it.
        """
        return self.__dict__.get(name)

    # ------------------------------------------------------------------
    # Join
    # ------------------------------------------------------------------
    def begin_join(self) -> None:
        """Contact the well-known server (Section 3.2)."""
        self.join_request_time = self.engine.now
        self.send(
            self.server_address,
            ServerJoin(
                address=self.address,
                capacity=self.capacity,
                interest=self.interest,
                coordinate=self.coordinate,
            ),
        )

    def on_ServerJoinReply(self, msg: ServerJoinReply) -> None:
        if msg.role == "t":
            if msg.entry_peer == -1:
                self._bootstrap_ring(msg.p_id)
            else:
                self.send(
                    msg.entry_peer,
                    TJoinRequest(new_address=self.address, new_pid=msg.p_id),
                )
        else:
            self.role = "s"
            self.t_peer = msg.entry_peer
            self.send(msg.entry_peer, SJoinRequest(new_address=self.address))
            self._arm_rejoin_retry()

    def _bootstrap_ring(self, p_id: int) -> None:
        """First peer of the system: a single-member ring."""
        self._take_position(p_id, self.address, -1, self.address, -1)
        self._complete_join()
        self.send(
            self.server_address,
            ServerUpdate(kind="t_join", address=self.address, p_id=p_id),
        )

    def _complete_join(self) -> None:
        self.joined = True
        self.join_latency = self.engine.now - self.join_request_time
        self.emit("join.complete", role=self.role, latency=self.join_latency)
        self._serving()

    # ------------------------------------------------------------------
    # Leave / crash
    # ------------------------------------------------------------------
    def leave(self) -> None:
        """Graceful departure (Table 1 / Section 3.2.2)."""
        if not self.alive or not self.joined:
            return
        if self.role == "t":
            self.leave_t()
        else:
            self.leave_s()

    @property
    def departing(self) -> bool:
        """True while a departure-time load dump is awaiting its ack."""
        return self._dump_pending_id >= 0

    def _depart_with_load(self, candidates: List[int]) -> None:
        """Hand the database to the first candidate that acknowledges,
        then depart.

        Fire-and-forget dumps silently destroy data when the recipient
        departs concurrently (the message is dropped); the ack + retry
        loop walks the candidate list until someone confirms receipt.
        If everyone is gone the data is genuinely lost -- exactly as it
        would be in a real deployment.
        """
        if len(self.database) == 0:
            self._depart()
            return
        # Recipients still to try.  Last resort: the bootstrap server
        # relays the dump to whoever currently owns the items' segment
        # (every cached pointer may be stale after heavy concurrent churn).
        self._dump_candidates = [
            c for c in candidates if c not in (-1, self.address)
        ] + [self.server_address]
        self._try_dump()

    def _try_dump(self) -> None:
        while self._dump_candidates:
            target = self._dump_candidates.pop(0)
            # A failed connect is immediately visible to the sender.
            if not self.transport.is_reachable(target):
                continue
            tid = self._dump_next_id
            self._dump_next_id += 1
            self._dump_pending_id = tid
            self.send(
                target,
                LoadTransfer(
                    items=tuple((i.key, i.value, i.d_id) for i in self.database),
                    reason="leave",
                    transfer_id=tid,
                    origin=self.address,
                ),
            )
            if self._dump_timer is None:
                self._dump_timer = Timer(
                    self.engine, self.config.join_retry_timeout, self._dump_timeout
                )
            self._dump_timer.start()
            return
        self._dump_pending_id = -1
        self.emit("load.lost", items=len(self.database))
        self._depart()

    def _dump_timeout(self) -> None:
        if self.alive and self.departing:
            self._dump_pending_id = -1
            self._try_dump()

    def on_LoadTransferAck(self, msg) -> None:
        if msg.transfer_id == self._dump_pending_id:
            self._dump_pending_id = -1
            self._depart()  # cancels the dump timer

    def _cancel_timers(self) -> None:
        """Stop every timer this peer owns and drop what they guarded."""
        self._stopping()
        self._cancel_rejoin_retry()
        if self._handoff_timer is not None:
            self._handoff_timer.cancel()
        pending_lookups = self._touched("pending_lookups")
        if pending_lookups:
            for pending in pending_lookups.values():
                pending.timer.cancel()
            pending_lookups.clear()
        watchers = self._touched("_write_watchers")
        if watchers:
            watchers.clear()

    def _depart(self) -> None:
        """Final exit after all departure messages went out."""
        self._cancel_timers()
        if self._dump_timer is not None:
            self._dump_timer.cancel()
        self.alive = False
        self.emit("peer.departed", role=self.role)

    def crash(self) -> None:
        """Abrupt failure: no notifications, all local state frozen."""
        self._cancel_timers()
        super().crash()
        self.emit("peer.crashed", role=self.role)

    # ------------------------------------------------------------------
    # Lifecycle hooks: the core's only way to reach a feature
    # ------------------------------------------------------------------
    def _serving(self, old_t: int = -1, crashed: bool = False) -> None:
        """Joined, or took over ``old_t``'s ring position (``crashed``:
        by promotion)."""

    def _stopping(self) -> None:
        """Leave or crash: stop feature timers, drop what they guarded."""

    def _ring_moved(self, old_lo: int, old_suc: int, failover: bool = True) -> None:
        """The segment grew down from ``old_lo``, or the successor was
        ``old_suc`` (``failover``: after a crash)."""

    def _neighbor_gone(self, addr: int, crashed: bool = False) -> None:
        """``addr`` left, or was declared ``crashed``."""

    def watch_neighbor(self, addr: int) -> None:
        """(Re)start the crash countdown for a neighbor."""

    def _refresh_liveness(self) -> None:
        """Reconcile the watched neighbors with the current ones."""


#: The optional features, (name, mixin, is it on), in MRO order: a tuple,
#: never a set, so no MRO depends on PYTHONHASHSEED.  The order fixes the
#: order of effects where mixins extend one method -- liveness starts
#: before replication; on a found item the bypass rule runs before the
#: cache (own part after super()) -- and puts the swarm tracker (a
#: BitTorrent-style s-network's search) ahead of walks.
FEATURES: Tuple[Tuple[str, type, Callable[[HybridConfig], bool]], ...] = (
    ("liveness", LivenessMixin, lambda c: c.heartbeats_enabled),
    ("replication", ReplicationMixin, lambda c: c.replication_factor > 1),
    ("swarm", SwarmMixin, lambda c: c.snetwork_style == SNETWORK_BITTORRENT),
    ("cache", CacheMixin, lambda c: c.cache_enabled),
    ("bypass", BypassMixin, lambda c: c.bypass_links),
    ("mesh", MeshMixin, lambda c: c.mesh_extra_links > 0),
    ("walk", WalkMixin, lambda c: c.search_mode == SEARCH_WALK),
)

_composed: Dict[Tuple[type, Tuple[str, ...]], type] = {}


def peer_class(config: HybridConfig, base: type = HybridPeer) -> type:
    """``base`` plus the mixins of the features ``config`` turns on:
    ``base`` itself if none, else one class per feature set, reused."""
    on = [(name, mixin) for name, mixin, enabled in FEATURES if enabled(config)]
    key = (base, tuple(name for name, _mixin in on))
    if on and key not in _composed:
        _composed[key] = type(
            f"{base.__name__}[{'+'.join(key[1])}]",
            (*(mixin for _name, mixin in on), base),
            {"__module__": base.__module__, "__doc__": base.__doc__},
        )
    return _composed[key] if on else base
