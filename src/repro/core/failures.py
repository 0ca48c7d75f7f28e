"""Crash detection and recovery (Section 3.2.2).

The paper's liveness machinery, implemented by :class:`LivenessMixin`:

* periodic **HELLO** heartbeats to every neighbor;
* a **per-neighbor timer**, reset by any HELLO or acknowledgment;
  expiry means the neighbor crashed;
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
experiments that crash peers turn them on.
"""

from __future__ import annotations

from functools import partial
from typing import Set

from ..overlay.messages import Ack, CrashReport, Hello, RingRepairRequest
from ..sim.timers import PeriodicTimer, Timer

__all__ = ["LivenessMixin"]


class LivenessMixin:
    """Heartbeats, neighbor timers and crash recovery."""

    # ------------------------------------------------------------------
    # Heartbeats
    # ------------------------------------------------------------------
    def start_heartbeats(self) -> None:
        """Begin HELLO broadcasting and neighbor watching (if enabled)."""
        if not self.config.heartbeats_enabled:
            return
        if self.hello_timer is None:
            self.hello_timer = PeriodicTimer(
                self.engine, self.config.hello_period, self._send_hellos
            )
        if not self.hello_timer.running:
            self.hello_timer.start()
        self._refresh_liveness()

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
    # Neighbor watching
    # ------------------------------------------------------------------
    def watch_neighbor(self, addr: int) -> None:
        """(Re)arm the crash-detection timer for a neighbor."""
        if not self.config.heartbeats_enabled or not self.alive:
            return
        if addr in (-1, self.address):
            return
        timer = self.neighbor_timers.get(addr)
        if timer is None:
            timer = Timer(
                self.engine,
                self.config.neighbor_timeout,
                partial(self._neighbor_timeout, addr),
            )
            self.neighbor_timers[addr] = timer
        timer.start()

    def unwatch_neighbor(self, addr: int) -> None:
        timer = self.neighbor_timers.pop(addr, None)
        if timer is not None:
            timer.cancel()

    def note_alive(self, addr: int) -> None:
        """Fresh evidence that ``addr`` is up: reset its timer."""
        timer = self.neighbor_timers.get(addr)
        if timer is not None:
            timer.reset()

    def note_query_activity(self, sender: int, query_id: int) -> None:
        """A data query arrived: the sender is alive, and per the paper
        we acknowledge it (suppressed under heavy load) so that crash
        detection reacts faster when queries are flowing.

        Query handlers call this only under
        ``config.heartbeats_enabled``: with heartbeats off no timer was
        ever armed (see watch_neighbor) and no ack is owed.
        """
        timer = self.neighbor_timers.get(sender)  # note_alive, inlined
        if timer is not None:
            timer.reset()
        if sender == self.address:
            return
        if self.engine.now >= self.ack_suppress_until:
            self.ack_suppress_until = self.engine.now + self.config.ack_suppress
            self._last_liveness_sent[sender] = self.engine.now
            self.send(sender, Ack(query_id=query_id))

    def _refresh_liveness(self) -> None:
        """Reconcile timers with the current neighbor set (role changes)."""
        if not self.config.heartbeats_enabled:
            return
        wanted = self._liveness_neighbors()
        for addr in list(self.neighbor_timers):
            if addr not in wanted:
                self.unwatch_neighbor(addr)
        for addr in wanted:
            if addr not in self.neighbor_timers:
                self.watch_neighbor(addr)

    def stop_liveness(self) -> None:
        """Cancel every timer this peer owns (departure/crash cleanup)."""
        if self.hello_timer is not None:
            self.hello_timer.stop()
        timers = self._touched("neighbor_timers")
        if timers:
            for timer in timers.values():
                timer.cancel()
            timers.clear()

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
    def _neighbor_timeout(self, addr: int) -> None:
        if not self.alive:
            return
        self.neighbor_timers.pop(addr, None)
        self.emit("crash.detected", suspect=addr)
        self._handle_neighbor_crash(addr)

    def _handle_neighbor_crash(self, addr: int) -> None:
        self.extra_links.discard(addr)
        self.drop_bypass(addr)
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
