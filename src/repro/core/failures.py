"""Crash detection and recovery (Section 3.2.2).

The paper's liveness machinery, implemented by :class:`LivenessMixin`:

* periodic **HELLO** heartbeats to every neighbor;
* a **deadline per neighbor**, pushed back by any HELLO, acknowledgment
  or data query from it; one watchdog event per peer declares every
  neighbor past its deadline crashed;
* **acknowledgments of data queries** double as liveness proofs, and a
  **suppress timer** throttles them under heavy query load ("peers send
  acknowledgment messages only when the suppress timer is timeout and a
  data query message is received");
* a recently-sent acknowledgment **cancels that neighbor's next
  scheduled HELLO** to save bandwidth (per neighbor -- deferring the
  whole broadcast would starve neighbors that are not querying us);
* crash reactions: s-peers whose cp died rejoin (or start a replacement
  election at the server when the cp was the t-peer); t-peers whose
  ring neighbor died ask the server for repair.

Heartbeats are off by default (``HybridConfig.heartbeats_enabled``);
experiments that crash peers turn them on, and only then is
:class:`LivenessMixin` part of the peer class.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Optional, Set

from ..overlay.messages import Ack, CrashReport, Hello, RingRepairRequest
from ..sim.engine import Event
from ..sim.timers import PeriodicTimer

__all__ = ["LivenessMixin"]


class LivenessMixin:
    """Heartbeats, neighbor deadlines and crash recovery."""

    _liveness = True
    # Class defaults the first write shadows.
    hello_timer: Optional[PeriodicTimer] = None
    ack_suppress_until = float("-inf")
    _watchdog: Optional[Event] = None

    @cached_property
    def neighbor_deadlines(self) -> Dict[int, float]:
        """Crash deadline per watched neighbor; every update pops and
        re-inserts, so ties expire in last-set order."""
        return {}

    @cached_property
    def _last_liveness_sent(self) -> Dict[int, float]:
        """Per-neighbor time of the last ack/HELLO we sent (bandwidth
        optimisation: a fresh ack cancels that neighbor's next HELLO)."""
        return {}

    def _serving(self, old_t: int = -1, crashed: bool = False) -> None:
        """Begin HELLO broadcasting and neighbor watching."""
        if self.hello_timer is None:
            self.hello_timer = PeriodicTimer(
                self.engine, self.config.hello_period, self._send_hellos
            )
        if not self.hello_timer.running:
            self.hello_timer.start()
        self._refresh_liveness()
        super()._serving(old_t, crashed)

    def _stopping(self) -> None:
        self.stop_liveness()
        super()._stopping()

    def _neighbor_gone(self, addr: int, crashed: bool = False) -> None:
        self.neighbor_deadlines.pop(addr, None)
        super()._neighbor_gone(addr, crashed)

    # ------------------------------------------------------------------
    # Heartbeats
    # ------------------------------------------------------------------
    def _liveness_neighbors(self) -> Set[int]:
        """Everyone this peer heartbeats: tree links + ring pointers."""
        neighbors = self.tree_neighbors()
        if self.role == "t":
            for n in (self.predecessor, self.successor):
                if n not in (-1, self.address):
                    neighbors.add(n)
        neighbors.discard(self.address)
        return neighbors

    def _send_hellos(self) -> None:
        if not self.alive:
            return
        now = self.engine.now
        targets = []
        for n in self._liveness_neighbors():
            # Bandwidth optimisation (Section 3.2.2): a recent
            # acknowledgment already proved our liveness to this
            # neighbor, so "the scheduled HELLO message is canceled" --
            # per neighbor, never for the whole broadcast, or neighbors
            # that are not currently querying us would starve and
            # falsely declare us crashed.
            if now - self._last_liveness_sent.get(n, float("-inf")) < self.config.hello_period:
                continue
            self._last_liveness_sent[n] = now
            targets.append(n)
        if targets:
            self.send_many(targets, Hello())

    # ------------------------------------------------------------------
    # Neighbor watching: one deadline per neighbor, one watchdog event
    # ------------------------------------------------------------------
    def watch_neighbor(self, addr: int) -> None:
        """(Re)start the crash-detection countdown for a neighbor."""
        if not self.alive or addr in (-1, self.address):
            return
        deadlines = self.neighbor_deadlines
        deadlines.pop(addr, None)
        deadline = deadlines[addr] = self.engine.now + self.config.neighbor_timeout
        # Deadlines only ever grow, so an armed (or firing) watchdog is
        # never late for this one; an idle one was idle on an empty table.
        if self._watchdog is None:
            self._watchdog = self.engine.call_at(deadline, self._check_neighbors)

    def note_alive(self, addr: int) -> None:
        """Fresh evidence that ``addr`` is up: push its deadline back."""
        deadlines = self.neighbor_deadlines
        if deadlines.pop(addr, None) is not None:
            deadlines[addr] = self.engine.now + self.config.neighbor_timeout

    def note_query_activity(self, sender: int, query_id: int) -> None:
        """A data query arrived: the sender is alive, and per the paper
        we acknowledge it (suppressed under heavy load) so that crash
        detection reacts faster when queries are flowing.

        Query handlers call this only when ``self._liveness`` (this
        mixin is in the peer class).
        """
        now = self.engine.now
        deadlines = self.neighbor_deadlines  # note_alive, inlined
        if deadlines.pop(sender, None) is not None:
            deadlines[sender] = now + self.config.neighbor_timeout
        if sender == self.address:
            return
        if now >= self.ack_suppress_until:
            self.ack_suppress_until = now + self.config.ack_suppress
            self._last_liveness_sent[sender] = now
            self.send(sender, Ack(query_id=query_id))

    def _check_neighbors(self) -> None:
        """The watchdog: every neighbor past its deadline crashed.

        Due neighbors are handled earliest deadline first, ties in
        last-set order, re-reading the table after each crash reaction
        (which may watch or unwatch others).  The watchdog then re-arms
        at the earliest deadline left.
        """
        deadlines = self.neighbor_deadlines
        while deadlines:
            addr = min(deadlines, key=deadlines.__getitem__)
            deadline = deadlines[addr]
            if deadline > self.engine.now:
                self._watchdog = self.engine.call_at(deadline, self._check_neighbors)
                return
            del deadlines[addr]
            self.emit("crash.detected", suspect=addr)
            self._handle_neighbor_crash(addr)
        self._watchdog = None

    def _refresh_liveness(self) -> None:
        """Reconcile the watched set with the current neighbors (role changes)."""
        wanted = self._liveness_neighbors()
        deadlines = self.neighbor_deadlines
        for addr in [a for a in deadlines if a not in wanted]:
            del deadlines[addr]
        for addr in wanted:
            if addr not in deadlines:
                self.watch_neighbor(addr)

    def stop_liveness(self) -> None:
        """Stop heartbeats and watching (departure/crash cleanup)."""
        if self.hello_timer is not None:
            self.hello_timer.stop()
        if self._watchdog is not None:
            self._watchdog.cancel()
            self._watchdog = None
        deadlines = self._touched("neighbor_deadlines")
        if deadlines:
            deadlines.clear()

    # ------------------------------------------------------------------
    # Message handlers
    # ------------------------------------------------------------------
    def on_Hello(self, msg: Hello) -> None:
        self.note_alive(msg.sender)

    def on_Ack(self, msg: Ack) -> None:
        self.note_alive(msg.sender)

    # ------------------------------------------------------------------
    # Crash reactions
    # ------------------------------------------------------------------
    def _handle_neighbor_crash(self, addr: int) -> None:
        self._neighbor_gone(addr, crashed=True)
        if self.role == "t":
            if addr in self.children:
                # A child's subtree will rejoin through us by itself.
                self.children.discard(addr)
                return
            if addr in (self.predecessor, self.successor):
                self.send(self.server_address, RingRepairRequest(suspect=addr))
            return
        # s-peer
        if addr == self.cp:
            self.cp = -1
            if addr == self.t_peer:
                # "The disconnected s-peers will compete to replace the
                # crashed t-peer by sending messages to the server."
                self.send(
                    self.server_address,
                    CrashReport(crashed=addr, reporter=self.address, reporter_is_speer=True),
                )
            else:
                self._start_rejoin()
        elif addr in self.children:
            self.children.discard(addr)
