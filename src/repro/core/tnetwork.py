"""t-network behaviour: the structured ring (Sections 3.2.1, 3.3).

:class:`TNetworkMixin` implements, on top of the shared peer state in
:class:`~repro.core.hybridpeer.HybridPeer`:

* ring forwarding (linear, as in the paper's simulation, or via finger
  tables as the Section 4 analysis assumes);
* the **join triangle** -- ``pre -> new -> suc -> pre`` with the
  ``joining`` mutex and request queue of Section 3.3, including ``p_id``
  conflict resolution by midpoint (Table 1's ``check``);
* the **leave triangle** -- ``leaver -> pre -> suc -> leaver`` with the
  ``leaving`` mutex, used only when the leaver's s-network is empty;
* **role handoff** -- the hybrid system's headline maintenance saving:
  a leaving t-peer promotes one of its s-peers, so t-peer positions
  never move and finger tables need substitution, not recomputation;
* load transfer on join (Table 1's ``loadtransfer``) and load dump on
  leave (``loaddump``).
"""

from __future__ import annotations

from typing import List, Tuple

from ..overlay.messages import (
    CollectLoad,
    FingerSubstitute,
    LoadTransferAck,
    RingNotify,
    SegmentGrow,
    LoadTransfer,
    PromoteToTPeer,
    RingRepairReply,
    RoleHandoff,
    RoleHandoffAck,
    ServerUpdate,
    TJoinAck,
    TJoinNotifySuccessor,
    TJoinRequest,
    TJoinSetNeighbors,
    TLeaveAck,
    TLeaveToPre,
    TLeaveToSuc,
    TPeerUpdate,
)
from ..sim.timers import Timer
from .config import ROUTING_FINGER

__all__ = ["TNetworkMixin"]


class TNetworkMixin:
    """Ring maintenance and routing for t-peers."""

    # ------------------------------------------------------------------
    # Ring routing
    # ------------------------------------------------------------------
    def owns(self, d_id: int) -> bool:
        """Does this t-peer's segment ``(pred_pid, p_id]`` cover d_id?

        Inlined ``IdSpace.owner_segment_contains``: this predicate runs
        once per ring hop, which is most delivered messages.
        """
        mask = self.idspace._mask
        pred = self.predecessor_pid
        span = (self.p_id - pred) & mask
        return span == 0 or 0 < ((d_id - pred) & mask) <= span

    def closest_preceding(self, target: int) -> int:
        """Finger-table hop: live finger closest before ``target``.

        Falls back to the successor, which alone guarantees progress
        (Chord's invariant).
        """
        mask = self.idspace._mask
        p_id = self.p_id
        best_addr = self.successor
        # Clockwise distances inlined as in ``owns``; ``best_dist >= 0``
        # makes ``best_dist < d`` imply the scan's ``0 < d``.
        best_dist = (self.successor_pid - p_id) & mask
        target_dist = (target - p_id) & mask
        for f_pid, f_addr in self.fingers:
            d = (f_pid - p_id) & mask
            if best_dist < d < target_dist:
                best_dist = d
                best_addr = f_addr
        return best_addr

    def ring_next_hop(self, target: int) -> int:
        """Next ring hop toward the owner of ``target``."""
        if self.config.ring_routing == ROUTING_FINGER and self.fingers:
            return self.closest_preceding(target)
        return self.successor

    def set_fingers(self, entries: List[Tuple[int, int]]) -> None:
        """Install a finger table as (p_id, address) pairs.

        The paper inherits Chord's background stabilization protocol
        without restating it; the experiment harness stands in for that
        protocol by installing consistent fingers after topology
        changes, while handoffs keep them patched via
        :class:`FingerSubstitute` exactly as Section 3.2.1 describes.
        """
        self.fingers = list(entries)

    def _take_position(
        self, p_id: int, pred: int, pred_pid: int, suc: int, suc_pid: int
    ) -> None:
        """Become the t-peer at ring position ``p_id``; a neighbor that
        is this peer itself (a one-member ring) takes ``p_id`` too."""
        self.role, self.p_id, self.t_peer, self.cp = "t", p_id, self.address, -1
        self.predecessor = pred
        self.predecessor_pid = p_id if pred == self.address else pred_pid
        self.successor = suc
        self.successor_pid = p_id if suc == self.address else suc_pid
        self.segment_lo = self.predecessor_pid

    # ------------------------------------------------------------------
    # Join triangle (Fig. 2 left)
    # ------------------------------------------------------------------
    def _insertion_here(self, pid: int) -> bool:
        return self.idspace.in_interval(
            pid, self.p_id, self.successor_pid, closed_right=True
        )

    def on_TJoinRequest(self, msg: TJoinRequest) -> None:
        if self.role != "t":
            # Stale routing (e.g. arrived just after a handoff): pass to
            # the current t-peer of this s-network.
            self.send(self.t_peer, msg)
            return
        if self.leaving:
            # "if the join request queue is not empty, the peer should
            # process the join request first" -- hold it; the queue is
            # flushed to whoever takes over this ring position.
            self.join_queue.append(msg)
            return
        if not self._insertion_here(msg.new_pid):
            self.send(self.ring_next_hop(msg.new_pid), msg)
            return
        pid = msg.new_pid
        if pid == self.p_id or pid == self.successor_pid:
            # Table 1's check(): on conflict assign the midpoint of the
            # (pre, suc) arc.
            pid = self.idspace.midpoint_cw(self.p_id, self.successor_pid)
            if pid == self.p_id or pid == self.successor_pid:
                self.emit("join.abort", new=msg.new_address, reason="id space exhausted")
                return
        if self.joining:
            self.join_queue.append(msg)
            return
        self.joining = True
        self.pending_join = (msg.new_address, pid)
        self.send(
            msg.new_address,
            TJoinSetNeighbors(
                pre=self.address,
                pre_pid=self.p_id,
                suc=self.successor,
                suc_pid=self.successor_pid,
                assigned_pid=pid,
            ),
        )

    def on_TJoinSetNeighbors(self, msg: TJoinSetNeighbors) -> None:
        """New peer's side of the triangle: adopt pointers, notify suc."""
        self._take_position(msg.assigned_pid, msg.pre, msg.pre_pid, msg.suc, msg.suc_pid)
        self.send(
            msg.suc,
            TJoinNotifySuccessor(
                new_address=self.address, new_pid=self.p_id, pre=msg.pre
            ),
        )

    def on_TJoinNotifySuccessor(self, msg: TJoinNotifySuccessor) -> None:
        """Successor's side: adopt the new predecessor, transfer load."""
        old_pred_pid = self.predecessor_pid
        self.predecessor = msg.new_address
        self.predecessor_pid = msg.new_pid
        self.segment_lo = msg.new_pid
        self._transfer_segment(old_pred_pid, msg.new_pid, msg.new_address)
        self.send(msg.pre, TJoinAck(new_address=msg.new_address))
        if msg.new_address != msg.pre:
            self.send(msg.new_address, TJoinAck(new_address=msg.new_address))
        # Reconcile, don't just add: the joiner displaced our previous
        # predecessor, whose timer would otherwise go stale and fire a
        # false crash.detected once its resets (acks/HELLOs) stop.
        self._refresh_liveness()

    def on_TJoinAck(self, msg: TJoinAck) -> None:
        if self.pending_join is not None and self.pending_join[0] == msg.new_address:
            # pre's side: commit the successor pointer, release the mutex.
            new_addr, new_pid = self.pending_join
            self.successor, self.successor_pid = new_addr, new_pid
            self.pending_join = None
            self.joining = False
            self._refresh_liveness()  # also unwatches the displaced successor
            self._drain_control_queues()
        if msg.new_address == self.address and not self.joined:
            # the new peer's side: it is now inserted in the ring.
            self._complete_join()
            self.send(
                self.server_address,
                ServerUpdate(kind="t_join", address=self.address, p_id=self.p_id),
            )
            self.watch_neighbor(self.predecessor)
            self.watch_neighbor(self.successor)

    def _drain_control_queues(self) -> None:
        """Process queued joins, then deferred leaves, then own leave."""
        while self.join_queue and not self.joining and not self.leaving:
            self.on_TJoinRequest(self.join_queue.popleft())
        if not self.joining:
            while self.deferred_leaves and not self.joining:
                self.on_TLeaveToPre(self.deferred_leaves.pop(0))
            if self.want_leave and not self.join_queue and not self.joining:
                self.want_leave = False
                self.leave()

    def _transfer_segment(self, lo: int, hi: int, target: int) -> None:
        """Table 1 ``loadtransfer``: hand segment (lo, hi] to ``target``.

        Every peer of this s-network participates, so the instruction is
        flooded down the tree via :class:`CollectLoad`.
        """
        self._send_segment(lo, hi, target)
        collect = CollectLoad(new_address=target, new_pid=hi, pred_pid=lo)
        self.send_many(self.children, collect)

    def on_CollectLoad(self, msg: CollectLoad) -> None:
        """s-network member's part of a load transfer."""
        # The segment of this s-network shrank: its lower bound is now
        # the new t-peer's p_id.
        self.segment_lo = msg.new_pid
        self._send_segment(msg.pred_pid, msg.new_pid, msg.new_address)
        self.send_many([c for c in self.children if c != msg.sender], msg)

    def _send_segment(self, lo: int, hi: int, target: int) -> None:
        """Move this peer's items in ``(lo, hi]`` to ``target``."""
        items = self.database.extract_segment(lo, hi)
        if items:
            self.send(
                target,
                LoadTransfer(items=tuple((i.key, i.value, i.d_id) for i in items), reason="join"),
            )

    def on_LoadTransfer(self, msg: LoadTransfer) -> None:
        if msg.transfer_id >= 0 and self.departing:
            # We are mid-departure ourselves: items inserted now would
            # miss our own (already snapshotted) dump.  Stay silent so
            # the sender's retry finds a steadier recipient.
            return
        for key, value, d_id in msg.items:
            self.database.insert(key, value, d_id)
        if msg.transfer_id >= 0:
            ack_to = msg.origin if msg.origin != -1 else msg.sender
            self.send(ack_to, LoadTransferAck(transfer_id=msg.transfer_id))

    # ------------------------------------------------------------------
    # Leave: handoff when possible, triangle otherwise (Fig. 2 right)
    # ------------------------------------------------------------------
    def leave_t(self) -> None:
        """Voluntary departure of a t-peer (Table 1 ``n.leave()``)."""
        if self.joining or self.join_queue:
            # "Now peer pre will not accept any leave requests including
            # that from itself."
            self.want_leave = True
            return
        if self.leaving:
            return
        self.leaving = True
        if self.successor == self.address:
            # Last peer of the system: nothing to hand over.
            self.send(
                self.server_address,
                ServerUpdate(kind="t_leave", address=self.address, p_id=self.p_id),
            )
            self._depart()
            return
        self._hand_over()

    def _hand_over(self) -> None:
        """Promote an s-peer (role handoff), or with none left start the
        leave triangle; a timer retries either if nobody answers."""
        if self.children:
            self._handoff_role()
            return
        self.send(
            self.predecessor,
            TLeaveToPre(leaver=self.address, suc=self.successor, suc_pid=self.successor_pid),
        )
        self._arm_handoff_retry()

    def _handoff_role(self) -> None:
        """Promote a random s-peer of our own s-network (Table 1).

        Items are *snapshotted*, not removed: if the chosen target dies
        (or leaves) before acknowledging, the retry timer re-runs the
        handoff with the data intact.  Our copy departs with us once
        the ack arrives.
        """
        candidates = sorted(self.children)
        target = candidates[int(self.rng.integers(0, len(candidates)))]
        self.handoff_target = target
        self.send(
            target,
            RoleHandoff(
                p_id=self.p_id,
                predecessor=self.predecessor,
                predecessor_pid=self.predecessor_pid,
                successor=self.successor,
                successor_pid=self.successor_pid,
                fingers=tuple(self.fingers),
                items=tuple((i.key, i.value, i.d_id) for i in self.database),
                s_neighbors=tuple(a for a in self.children if a != target),
            ),
        )
        self._arm_handoff_retry()

    def _arm_handoff_retry(self) -> None:
        if self._handoff_timer is None:
            self._handoff_timer = Timer(
                self.engine, self.config.join_retry_timeout, self._handoff_retry
            )
        self._handoff_timer.start()

    def _handoff_retry(self) -> None:
        """No ack: the target died or left mid-handoff.  Re-run the
        leave with whoever is still around (triangle if nobody is)."""
        if not self.alive or not self.leaving:
            return
        self.children.discard(self.handoff_target)
        self.handoff_target = -1
        self.emit("t.handoff.retry")
        self._hand_over()

    def on_RoleHandoff(self, msg: RoleHandoff) -> None:
        """Chosen s-peer becomes the t-peer at the same ring position."""
        old_t = msg.sender
        if msg.predecessor == old_t:  # old peer was the only ring member
            self._take_position(msg.p_id, self.address, -1, self.address, -1)
        else:
            self._take_position(
                msg.p_id, msg.predecessor, msg.predecessor_pid,
                msg.successor, msg.successor_pid,
            )
        self.fingers = list(msg.fingers)
        self.children.update(msg.s_neighbors)
        for key, value, d_id in msg.items:
            self.database.insert(key, value, d_id)
        self.send(old_t, RoleHandoffAck())
        self.send(
            self.server_address,
            ServerUpdate(
                kind="t_handoff", address=self.address, p_id=self.p_id, extra=old_t
            ),
        )
        self._announce_substitution(old_t)
        self._serving(old_t)
        self.emit("t.handoff", old=old_t, p_id=self.p_id)

    def _announce_substitution(self, old_t: int) -> None:
        """Patch ring pointers (direct) and fingers (circulated)."""
        if self.predecessor != self.address:
            self.send(
                self.predecessor,
                FingerSubstitute(old=old_t, new=self.address, origin=self.address),
            )
        if self.successor not in (self.address, self.predecessor):
            self.send(
                self.successor,
                FingerSubstitute(old=old_t, new=self.address, origin=self.address),
            )
        if self.config.ring_routing == ROUTING_FINGER and self.successor != self.address:
            self.send(
                self.successor,
                FingerSubstitute(
                    old=old_t, new=self.address, origin=self.address, circulate=True
                ),
            )
        update = TPeerUpdate(new_t=self.address, old_t=old_t)
        self.send_many(self.children, update)

    def on_RoleHandoffAck(self, msg: RoleHandoffAck) -> None:
        """Old t-peer: hand over queued control work, then depart."""
        if self._handoff_timer is not None:
            self._handoff_timer.cancel()
        self._pass_control_queues(msg.sender)
        self._depart()

    def _pass_control_queues(self, target: int) -> None:
        """Hand queued joins and deferred leaves to ``target``."""
        for queued in (*self.join_queue, *self.deferred_leaves):
            self.send(target, queued)
        self.join_queue.clear()
        self.deferred_leaves.clear()

    def on_FingerSubstitute(self, msg: FingerSubstitute) -> None:
        """Swap ``old`` for ``new`` in our pointers; forward if circulating.

        A circulating substitute starts at ``new`` (the substitute on a
        role handoff, the leaver's successor on a leave) and stops at
        the t-peer whose successor is ``new``: one lap of the ring.
        ``new`` is on the ring in both cases; ``origin`` is not (a
        leaver has already left), so it cannot be the stop rule.

        A handoff keeps the ring position, so a finger naming ``old``
        keeps its p_id and points at ``new``.  A leave (``origin ==
        old``) does not: the successor sits at a later p_id, and a
        finger keeping the leaver's p_id would let ``closest_preceding``
        overshoot a target in between, forever.  Such fingers are
        dropped; the successor fallback still guarantees progress.
        """
        if self.role != "t":
            return
        if self.successor == msg.old:
            self.successor = msg.new
        if self.predecessor == msg.old:
            self.predecessor = msg.new
        if msg.origin == msg.old:
            self.fingers = [f for f in self.fingers if f[1] != msg.old]
        else:
            self.fingers = [
                (pid, msg.new if addr == msg.old else addr)
                for pid, addr in self.fingers
            ]
        self._neighbor_gone(msg.old)
        if msg.old in (self.predecessor, self.successor) or msg.new in (
            self.predecessor,
            self.successor,
        ):
            self.watch_neighbor(msg.new)
        if msg.circulate and self.successor not in (msg.new, self.address):
            self.send(self.successor, msg)

    def on_TLeaveToPre(self, msg: TLeaveToPre) -> None:
        """pre's side of the leave triangle."""
        if self.role != "t":
            self.send(self.t_peer, msg)
            return
        if self.joining or self.leaving:
            # "the peer will not accept any new join request ... and
            # leaving request": deferred until our own operation
            # commits (a departing pre forwards its deferred work to
            # the leaver's new predecessor).
            self.deferred_leaves.append(msg)
            return
        if msg.leaver != self.successor:
            # Topology moved under the leaver (a join slid in between):
            # route the request to the leaver's actual predecessor.
            self.send(self.successor, msg)
            return
        self.successor, self.successor_pid = msg.suc, msg.suc_pid
        self._refresh_liveness()  # also unwatches the leaver
        self.send(
            msg.suc,
            TLeaveToSuc(leaver=msg.leaver, pre=self.address, pre_pid=self.p_id),
        )

    def on_TLeaveToSuc(self, msg: TLeaveToSuc) -> None:
        """suc's side: verify the leaver is our predecessor, then ack."""
        if self.predecessor != msg.leaver:
            self.emit("t.leave.mismatch", leaver=msg.leaver, predecessor=self.predecessor)
            return
        old_lo = self.predecessor_pid
        self.predecessor, self.predecessor_pid = msg.pre, msg.pre_pid
        self.segment_lo = msg.pre_pid
        # The departed segment merges into ours; tell our s-network.
        grow = SegmentGrow(new_lo=msg.pre_pid)
        self.send_many(self.children, grow)
        self._refresh_liveness()  # also unwatches the leaver
        self._ring_moved(old_lo, self.successor, failover=False)
        self.send(msg.leaver, TLeaveAck())

    def on_TLeaveAck(self, msg: TLeaveAck) -> None:
        """Leaver's side: dump load to suc, update the world, depart."""
        if self._handoff_timer is not None:
            self._handoff_timer.cancel()
        if self.config.ring_routing == ROUTING_FINGER:
            self.send(
                self.successor,
                FingerSubstitute(
                    old=self.address,
                    new=self.successor,
                    origin=self.address,
                    circulate=True,
                ),
            )
        self.send(
            self.server_address,
            ServerUpdate(kind="t_leave", address=self.address, p_id=self.p_id),
        )
        self._pass_control_queues(self.predecessor)
        # Table 1's loaddump, acked: successor first, predecessor as the
        # fallback recipient.
        self._depart_with_load([self.successor, self.predecessor])

    # ------------------------------------------------------------------
    # Crash recovery hooks (promotion and ring repair)
    # ------------------------------------------------------------------
    def on_PromoteToTPeer(self, msg: PromoteToTPeer) -> None:
        """Server elected us to replace our crashed t-peer."""
        if self.role == "t":
            return  # stale duplicate
        old_t = msg.crashed
        self._take_position(
            msg.p_id, msg.predecessor, msg.predecessor_pid, msg.successor, msg.successor_pid
        )
        self._announce_substitution(old_t)
        self.emit("t.promotion", crashed=old_t, p_id=self.p_id)
        # Our database starts empty at the crashed peer's position.
        self._serving(old_t, crashed=True)

    def on_RingRepairReply(self, msg: RingRepairReply) -> None:
        """Adopt the server's authoritative ring pointers and assert
        ourselves to those neighbors (see :class:`RingNotify`)."""
        if self.role != "t":
            return
        old_lo = self.predecessor_pid
        old_suc = self.successor
        if msg.predecessor != self.address:
            self.predecessor, self.predecessor_pid = msg.predecessor, msg.predecessor_pid
            self.watch_neighbor(msg.predecessor)
            self.send(msg.predecessor, RingNotify(p_id=self.p_id, claim="suc"))
        if msg.successor != self.address:
            self.successor, self.successor_pid = msg.successor, msg.successor_pid
            self.watch_neighbor(msg.successor)
            self.send(msg.successor, RingNotify(p_id=self.p_id, claim="pred"))
        self.segment_lo = self.predecessor_pid
        self._ring_moved(old_lo, old_suc)

    def on_RingNotify(self, msg: RingNotify) -> None:
        """A neighbor asserts its ring position (Chord's notify rule).

        Accept when the claimant sits at our recorded neighbor p_id
        (address substitution after a handoff) or strictly improves the
        pointer (a closer neighbor than the one we know).
        """
        if self.role != "t":
            return
        if msg.claim == "pred":
            if msg.p_id == self.predecessor_pid or self.idspace.in_interval(
                msg.p_id, self.predecessor_pid, self.p_id
            ):
                self.predecessor, self.predecessor_pid = msg.sender, msg.p_id
                self.segment_lo = msg.p_id
                self._refresh_liveness()  # also unwatches the old pointer
        elif msg.claim == "suc":
            if msg.p_id == self.successor_pid or self.idspace.in_interval(
                msg.p_id, self.p_id, self.successor_pid
            ):
                self.successor, self.successor_pid = msg.sender, msg.p_id
                self._refresh_liveness()  # also unwatches the old pointer

    def on_SegmentGrow(self, msg: SegmentGrow) -> None:
        """s-network member: widen the local ownership test, forward."""
        self.segment_lo = msg.new_lo
        self.send_many([c for c in self.children if c != msg.sender], msg)
