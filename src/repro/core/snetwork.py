"""s-network behaviour: the unstructured stub trees (Section 3.2.2).

:class:`SNetworkMixin` implements:

* the **degree-constrained join walk** -- a join request descends from
  the t-peer along a random branch until it reaches a peer with degree
  below δ, the new s-peer's *connect point* (cp);
* the **link-usage rule** of Section 5.1 (degree/capacity gating), on
  with ``heterogeneity_aware``;
* graceful s-peer leave with neighbor notification, subtree rejoin and
  load transfer to a neighbor;
* rejoin of disconnected subtree roots through the t-peer, with retry
  timers so walks swallowed by a concurrent crash are not lost.

The resulting topology is a tree ("we use a tree instead of a mesh due
to bandwidth efficiency consideration"); the mesh ablation
(:class:`MeshMixin`) adds extra links at build time in :mod:`repro.core.hybrid`.
"""

from __future__ import annotations

from functools import cached_property
from typing import Set

from ..enhance.heterogeneity import link_usage
from ..overlay.messages import (
    ServerUpdate,
    SJoinAccept,
    SJoinRequest,
    SLeaveNotify,
    SRejoinRequest,
    TPeerUpdate,
)
from ..sim.timers import Timer

__all__ = ["SNetworkMixin", "MeshMixin"]

#: Section 5.1's link-usage gate for connect points.  Calibrated to the
#: default CapacityModel units (LOW = 0.05): 40 lets a LOW-capacity peer
#: take ~1 extra child while HIGH-capacity peers fill the whole delta
#: budget.
LINK_USAGE_THRESHOLD = 40.0


class SNetworkMixin:
    """Tree membership for s-peers (and the tree root role of t-peers)."""

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    def tree_neighbors(self) -> Set[int]:
        """Direct s-network neighbors: children plus cp (if any)."""
        if self.cp != -1:
            return self.children | {self.cp}
        return set(self.children)

    def flood_targets(self, exclude: int = -1) -> Set[int]:
        """Where a flood fans out: tree links plus mesh-ablation links."""
        # union() copies even when there is nothing to add; the copy's
        # iteration order is the fan-out order the goldens pin.
        targets = self.tree_neighbors().union(self.extra_links)
        targets.discard(exclude)
        targets.discard(self.address)
        return targets

    def tree_degree(self) -> int:
        return len(self.children) + (1 if self.cp != -1 else 0)

    def owns_locally(self, d_id: int) -> bool:
        """Is ``d_id`` served by this peer's own s-network?"""
        if self.role == "t":
            return self.owns(d_id)
        return self.idspace.owner_segment_contains(d_id, self.segment_lo, self.p_id)

    # ------------------------------------------------------------------
    # Join walk
    # ------------------------------------------------------------------
    def on_SJoinRequest(self, msg: SJoinRequest) -> None:
        """Accept the new s-peer here, or pass it down a random branch."""
        if self.role == "t" and self.leaving:
            # Mid-handoff: accepting now would hand the joiner a cp that
            # is about to depart.  Push the walk below us (the promoted
            # child adopts the subtree); with no children the joiner's
            # retry timer re-routes through the server.
            if self.children:
                branches = sorted(self.children)
                self.send(branches[int(self.rng.integers(0, len(branches)))], msg)
            return
        if self._accepts_here():
            self.children.add(msg.new_address)
            self.send(
                msg.new_address,
                SJoinAccept(
                    cp=self.address,
                    t_peer=self.t_peer,
                    p_id=self.p_id,
                    segment_lo=self.segment_lo if self.role == "s" else self.predecessor_pid,
                ),
            )
            self.watch_neighbor(msg.new_address)
            return
        branches = sorted(self.children)
        nxt = branches[int(self.rng.integers(0, len(branches)))]
        self.send(nxt, msg)

    def _accepts_here(self) -> bool:
        if not self.children:
            # A leaf must take the first child even if the degree cap or
            # link-usage frowns; otherwise the walk would dead-end.
            return True
        if self.tree_degree() >= self.config.delta:
            return False  # no spare degree for another child
        if self.config.heterogeneity_aware:
            # Section 5.1: accept only while degree/capacity stays low.
            return link_usage(self.tree_degree() + 1, self.capacity) <= LINK_USAGE_THRESHOLD
        return True

    def on_SJoinAccept(self, msg: SJoinAccept) -> None:
        """New s-peer: adopt cp, t-peer pointer and shared p_id."""
        self._cancel_rejoin_retry()
        self.role = "s"
        self.cp = msg.cp
        self.t_peer = msg.t_peer
        self.p_id = msg.p_id
        self.segment_lo = msg.segment_lo
        self.watch_neighbor(msg.cp)
        if not self.joined:
            self._complete_join()
            self.send(
                self.server_address,
                ServerUpdate(kind="s_join", address=self.address, extra=self.t_peer),
            )
        else:
            self.emit("s.rejoined", cp=msg.cp)

    # ------------------------------------------------------------------
    # Leave
    # ------------------------------------------------------------------
    def leave_s(self) -> None:
        """Graceful s-peer departure (Section 3.2.2)."""
        neighbors = self.tree_neighbors()
        notice = SLeaveNotify(leaver=self.address)
        self.send_many(neighbors, notice)
        self.send(
            self.server_address,
            ServerUpdate(kind="s_leave", address=self.address, extra=self.t_peer),
        )
        # "The leaving s-peer should also choose a neighbor to transfer
        # the load to" -- acked and retried across the neighbor list so
        # a concurrent departure of the first choice loses nothing.
        order = sorted(neighbors)
        if order:
            first = int(self.rng.integers(0, len(order)))
            order = order[first:] + order[:first]
        self._depart_with_load(order + [self.t_peer])

    def on_SLeaveNotify(self, msg: SLeaveNotify) -> None:
        """A tree neighbor left: drop the link; rejoin if it was our cp."""
        self.children.discard(msg.leaver)
        self._neighbor_gone(msg.leaver)
        if self.cp == msg.leaver:
            self.cp = -1
            self._start_rejoin()

    # ------------------------------------------------------------------
    # Rejoin of disconnected subtree roots
    # ------------------------------------------------------------------
    def _start_rejoin(self, via_server: bool = False) -> None:
        """Reattach to the s-network via the t-peer, with retries.

        Retries after the first alternate through the server, which
        routes the request to whoever *currently* owns our segment --
        the cached ``t_peer`` pointer may be stale if the anchor
        departed while we were disconnected.
        """
        if self.role != "s" or not self.alive:
            return
        target = self.server_address if via_server else self.t_peer
        self.send(target, SRejoinRequest(new_address=self.address, p_id=self.p_id))
        self._arm_rejoin_retry()

    def _arm_rejoin_retry(self) -> None:
        if self._rejoin_timer is None:
            self._rejoin_timer = Timer(
                self.engine, self.config.join_retry_timeout, self._rejoin_retry
            )
        self._rejoin_timer.start()

    def _cancel_rejoin_retry(self) -> None:
        if self._rejoin_timer is not None:
            self._rejoin_timer.cancel()

    def _rejoin_retry(self) -> None:
        """The walk was swallowed (crash/departure en route); try again."""
        if self.role != "s" or self.cp != -1 or not self.alive:
            return
        self.emit("s.rejoin.retry")
        self._start_rejoin(via_server=True)

    def on_SRejoinRequest(self, msg: SRejoinRequest) -> None:
        """The t-peer treats a rejoin exactly like a fresh join walk."""
        self.on_SJoinRequest(SJoinRequest(new_address=msg.new_address))

    def on_RejoinRedirect(self, msg) -> None:
        """Server points us at the promoted replacement t-peer."""
        old_t = self.t_peer
        self.t_peer = msg.new_t
        if self.cp == old_t or self.cp == -1:
            self.cp = -1
            self._start_rejoin()
        # Our whole subtree must learn the new t-peer.
        update = TPeerUpdate(new_t=msg.new_t, old_t=old_t)
        self.send_many(self.children, update)

    def on_TPeerUpdate(self, msg: TPeerUpdate) -> None:
        """The anchoring t-peer changed (handoff/promotion)."""
        if self.role != "s":
            return
        self.t_peer = msg.new_t
        if self.cp == msg.old_t:
            self.cp = msg.new_t
            self.watch_neighbor(msg.new_t)
        self.send_many([c for c in self.children if c != msg.sender], msg)


class MeshMixin:
    """Mesh ablation: intra-s-network links beside the tree."""

    @cached_property
    def extra_links(self) -> Set[int]:
        """Extra links of this peer, wired at build time."""
        return set()

    def _neighbor_gone(self, addr: int, crashed: bool = False) -> None:
        self.extra_links.discard(addr)
        super()._neighbor_gone(addr, crashed)
