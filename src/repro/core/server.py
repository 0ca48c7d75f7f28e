"""The well-known bootstrap server.

Section 3.2: "Peers that want to join the system first contact a
well-known server to obtain an arbitrary existing peer in the system."
Beyond bootstrapping, the paper gives the server several concrete jobs,
all implemented here:

* ``p_id`` generation (random or hash-of-address, Section 3.2.1);
* role assignment -- by target ratio ``p_s``, or by link capacity when
  the Section 5.1 enhancement is on ("Based on the value, the server
  decides whether the peer is a t-peer or an s-peer");
* s-network assignment -- balanced ("the server is responsible for
  assigning a joining s-peer to some s-network with a smaller size"),
  interest-matched (Section 5.3), or landmark-binned (Section 5.2)
  whenever the joining peer carries a landmark coordinate;
* crash arbitration -- "The disconnected s-peers will compete to
  replace the crashed t-peer by sending messages to the server.  The
  server will pick an s-peer to be the new t-peer."

The server keeps an authoritative directory of the t-network ring
(it generated every ``p_id``), updated by :class:`ServerUpdate`
notifications, which also lets it repair the ring when a t-peer with an
empty s-network crashes.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..enhance.binning import prefix_similarity
from ..overlay.idspace import IdSpace
from ..overlay.messages import (
    CrashReport,
    Hello,
    LoadTransfer,
    Message,
    PromoteToTPeer,
    RejoinRedirect,
    RingRepairReply,
    RingRepairRequest,
    ServerJoin,
    ServerJoinReply,
    ServerUpdate,
    SRejoinRequest,
)
from ..overlay.peer import BasePeer
from ..sim.engine import Engine
from ..sim.trace import TraceBus
from ..overlay.transport import Transport
from .config import ASSIGN_INTEREST, HybridConfig

__all__ = ["RingDirectory", "BootstrapServer"]


class RingDirectory:
    """Sorted view of the t-network ring: (p_id, address) pairs.

    Supports the queries the server needs: owner of an id, ring
    neighbors of a member, insertion/removal/substitution.
    """

    def __init__(self) -> None:
        self._pids: List[int] = []
        self._addrs: List[int] = []
        self._by_addr: Dict[int, int] = {}  # address -> p_id

    def __len__(self) -> int:
        return len(self._pids)

    def __contains__(self, address: int) -> bool:
        return address in self._by_addr

    def members(self) -> List[Tuple[int, int]]:
        """All (p_id, address) pairs in ring order."""
        return list(zip(self._pids, self._addrs))

    @property
    def pids(self) -> List[int]:
        """The members' p_ids in ring order (the live list; do not mutate)."""
        return self._pids

    def pid_of(self, address: int) -> Optional[int]:
        return self._by_addr.get(address)

    def has_pid(self, p_id: int) -> bool:
        i = bisect.bisect_left(self._pids, p_id)
        return i < len(self._pids) and self._pids[i] == p_id

    # ------------------------------------------------------------------
    def insert(self, p_id: int, address: int) -> None:
        if address in self._by_addr:
            raise ValueError(f"address {address} already on ring")
        if self.has_pid(p_id):
            raise ValueError(f"p_id {p_id} already on ring")
        i = bisect.bisect_left(self._pids, p_id)
        self._pids.insert(i, p_id)
        self._addrs.insert(i, address)
        self._by_addr[address] = p_id

    def remove(self, address: int) -> None:
        p_id = self._by_addr.pop(address, None)
        if p_id is None:
            return
        i = bisect.bisect_left(self._pids, p_id)
        del self._pids[i]
        del self._addrs[i]

    def substitute(self, old: int, new: int) -> None:
        """Replace member ``old`` with ``new`` at the same ``p_id``."""
        p_id = self._by_addr.pop(old, None)
        if p_id is None:
            return
        i = bisect.bisect_left(self._pids, p_id)
        self._addrs[i] = new
        self._by_addr[new] = p_id

    # ------------------------------------------------------------------
    def successor_of_pid(self, p_id: int) -> Tuple[int, int]:
        """(p_id, address) of the first member strictly after ``p_id``."""
        if not self._pids:
            raise LookupError("ring is empty")
        i = bisect.bisect_right(self._pids, p_id) % len(self._pids)
        return self._pids[i], self._addrs[i]

    def owner_of(self, d_id: int) -> Tuple[int, int]:
        """(p_id, address) of the member owning ``d_id``.

        The owner is the first member at or clockwise-after ``d_id``
        (segments are ``(pred, owner]``).
        """
        if not self._pids:
            raise LookupError("ring is empty")
        i = bisect.bisect_left(self._pids, d_id) % len(self._pids)
        return self._pids[i], self._addrs[i]

    def neighbors_of(self, address: int) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """((pred_pid, pred_addr), (suc_pid, suc_addr)) of a member."""
        p_id = self._by_addr.get(address)
        if p_id is None:
            raise LookupError(f"address {address} not on ring")
        i = bisect.bisect_left(self._pids, p_id)
        n = len(self._pids)
        pi, si = (i - 1) % n, (i + 1) % n
        return (self._pids[pi], self._addrs[pi]), (self._pids[si], self._addrs[si])

    def random_member(self, rng: np.random.Generator) -> Tuple[int, int]:
        if not self._pids:
            raise LookupError("ring is empty")
        i = int(rng.integers(0, len(self._pids)))
        return self._pids[i], self._addrs[i]


@dataclass
class _Election:
    """State of one crash-replacement election."""

    crashed: int
    p_id: int
    s_reporters: List[int] = field(default_factory=list)
    t_reporters: List[int] = field(default_factory=list)
    decided: bool = False
    winner: int = -1


class BootstrapServer(BasePeer):
    """The rendezvous/arbitration actor.

    A :class:`~repro.overlay.peer.BasePeer` like everyone else -- it has
    a host and all exchanges with it pay real network latency.
    """

    def __init__(
        self,
        host: int,
        engine: Engine,
        transport: Transport,
        idspace: IdSpace,
        config: HybridConfig,
        rng: np.random.Generator,
        trace: Optional[TraceBus] = None,
        landmarks: Tuple[int, ...] = (),
    ) -> None:
        super().__init__(config.server_address, host, engine, transport, idspace, trace)
        self.config = config
        self.rng = rng
        self.landmarks = tuple(landmarks)
        self.ring = RingDirectory()
        # s-network occupancy: t-peer address -> number of s-peers.
        self.s_counts: Dict[int, int] = {}
        # Coordinates (landmark orderings) of t-peers, for binning.
        self.t_coords: Dict[int, Tuple[int, ...]] = {}
        # Interest -> anchoring t-peer (Section 5.3).
        self.interest_map: Dict[str, int] = {}
        self._elections: Dict[int, _Election] = {}
        self.t_count = 0
        self.s_count = 0
        self.joins_served = 0
        # Build-time role pre-assignment (stands in for the capacity
        # ranking a long-running server would accumulate; see
        # HybridSystem.build).  Checked before the online heuristic.
        self.preassigned_roles: Dict[int, str] = {}
        self._bootstrap_pending = False
        self._waiting_joins: List[ServerJoin] = []
        self._cap_samples: List[float] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def directory_snapshot(self) -> Dict[str, object]:
        """JSON-safe view of the authoritative directory.

        Served over the wire by the live runtime's ``status`` verb and
        used by the localnet harness to assert that the directory and
        the live ring agree; the simulator's tests read the same fields
        directly.
        """
        return {
            "t_count": self.t_count,
            "s_count": self.s_count,
            "joins_served": self.joins_served,
            "ring": [[p_id, addr] for p_id, addr in self.ring.members()],
            "s_counts": {str(a): n for a, n in sorted(self.s_counts.items())},
        }

    # ------------------------------------------------------------------
    # p_id generation (Section 3.2.1)
    # ------------------------------------------------------------------
    def generate_pid(self, address: int) -> int:
        return int(self.rng.integers(0, self.idspace.size))

    # ------------------------------------------------------------------
    # Role assignment
    # ------------------------------------------------------------------
    def decide_role(self, capacity: float, address: int = -1) -> str:
        """'t' or 's' for a joining peer.

        Keeps the realised ratio tracking ``p_s``.  With the
        heterogeneity enhancement, low-capacity peers dodge t-duty while
        any alternative exists and high-capacity peers take it eagerly.
        """
        preassigned = self.preassigned_roles.get(address)
        if preassigned is not None and (preassigned == "t" or self.t_count > 0):
            return preassigned
        total = self.t_count + self.s_count + 1
        target_t = max(1, round((1.0 - self.config.p_s) * total))
        deficit = target_t - self.t_count
        if self.t_count == 0:
            return "t"
        if self.config.p_s >= 1.0:
            return "s"
        if not self.config.heterogeneity_aware:
            return "t" if deficit > 0 else "s"
        # Capacity-aware: the cut line is the running median of observed
        # capacities; fast peers fill the t-deficit first, slow peers
        # only when the deficit has grown past slack (they are the only
        # ones left).
        self._cap_samples.append(capacity)
        ordered = sorted(self._cap_samples)
        median = ordered[len(ordered) // 2]
        if deficit > 0 and capacity >= median:
            return "t"
        if deficit > 1:  # starving for t-peers; anyone will do
            return "t"
        return "s"

    # ------------------------------------------------------------------
    # s-network assignment
    # ------------------------------------------------------------------
    def choose_snetwork(
        self,
        interest: Optional[str],
        coordinate: Optional[Tuple[int, ...]],
    ) -> int:
        """Address of the t-peer whose s-network the new s-peer joins."""
        if not self.s_counts:
            raise LookupError("no t-peer available to anchor an s-network")
        if self.config.assignment == ASSIGN_INTEREST and interest is not None:
            return self._choose_by_interest(interest)
        if coordinate is not None:  # peers carry one only when landmarks exist
            return self._choose_by_bin(coordinate)
        # balanced (default): smallest s-network, ties by address for
        # determinism.
        return min(self.s_counts, key=lambda a: (self.s_counts[a], a))

    def _choose_by_interest(self, interest: str) -> int:
        t = self.interest_map.get(interest)
        if t is not None and t in self.s_counts:
            return t
        # First peer with this interest: anchor the interest at the
        # t-peer owning the hash of the interest label, so data of the
        # category (whose d_ids cluster near that hash; see
        # workloads.keys) lands in the same segment.
        _, owner = self.ring.owner_of(self.idspace.hash_key(interest))
        self.interest_map[interest] = owner
        return owner

    def _choose_by_bin(self, coordinate: Tuple[int, ...]) -> int:
        """Landmark binning: longest common prefix of landmark orderings.

        Peers whose orderings agree are physically close (Section 5.2);
        ties break toward the smaller s-network so clusters spread
        round-robin over equally-near s-networks.
        """
        best = None
        best_key = (-1, 0, 0)
        for t_addr in self.s_counts:
            coord = self.t_coords.get(t_addr, ())
            key = (prefix_similarity(coordinate, coord), -self.s_counts[t_addr], -t_addr)
            if key > best_key:
                best_key = key
                best = t_addr
        assert best is not None
        return best

    # ------------------------------------------------------------------
    # Message handlers
    # ------------------------------------------------------------------
    def on_ServerJoin(self, msg: ServerJoin) -> None:
        """Answer a join request with role, id material and entry peer.

        Bootstrap is serialized: while the very first t-peer's join is
        outstanding the ring directory is empty, and answering anyone
        else would mint a second, disjoint ring.  Such requests wait
        until the bootstrap's ``t_join`` confirmation arrives.
        """
        if not self.ring:
            if self._bootstrap_pending:
                self._waiting_joins.append(msg)
                return
            self._bootstrap_pending = True
            p_id = self.generate_pid(msg.address)
            if msg.coordinate is not None:
                self.t_coords[msg.address] = tuple(msg.coordinate)
            self.joins_served += 1
            self.send(
                msg.address,
                ServerJoinReply(role="t", p_id=p_id, entry_peer=-1, landmarks=self.landmarks),
            )
            return
        self.joins_served += 1
        role = self.decide_role(msg.capacity, msg.address)
        if role == "t":
            p_id = self.generate_pid(msg.address)
            _, entry = self.ring.random_member(self.rng)
            if msg.coordinate is not None:
                self.t_coords[msg.address] = tuple(msg.coordinate)
            reply = ServerJoinReply(
                role="t", p_id=p_id, entry_peer=entry, landmarks=self.landmarks
            )
        else:
            anchor = self.choose_snetwork(msg.interest, msg.coordinate)
            p_id = self.ring.pid_of(anchor) or 0
            # Count the assignment immediately: the server made the
            # decision, so waiting for the s_join confirmation would
            # let concurrent joiners all pile onto the same "smallest"
            # s-network.
            self.s_counts[anchor] = self.s_counts.get(anchor, 0) + 1
            self.s_count += 1
            reply = ServerJoinReply(
                role="s", p_id=p_id, entry_peer=anchor, landmarks=self.landmarks
            )
        self.send(msg.address, reply)

    def on_ServerUpdate(self, msg: ServerUpdate) -> None:
        """Keep the directory in sync with completed membership events."""
        if msg.kind == "t_join":
            if msg.address not in self.ring:
                self.ring.insert(msg.p_id, msg.address)
                self.s_counts.setdefault(msg.address, 0)
                self.t_count += 1
            if self._bootstrap_pending:
                self._bootstrap_pending = False
                waiting, self._waiting_joins = self._waiting_joins, []
                for queued in waiting:
                    self.on_ServerJoin(queued)
        elif msg.kind == "t_leave":
            if msg.address in self.ring:
                self.ring.remove(msg.address)
                self.s_counts.pop(msg.address, None)
                self.t_count -= 1
        elif msg.kind == "t_handoff":
            old = msg.extra
            if old in self.ring:
                self.ring.substitute(old, msg.address)
                count = self.s_counts.pop(old, 0)
                # The promoted peer was an s-peer of this network.
                self.s_counts[msg.address] = max(0, count - 1)
                self.s_count -= 1
                if old in self.t_coords:
                    self.t_coords[msg.address] = self.t_coords.pop(old)
            # Answer with authoritative ring pointers: when several
            # adjacent t-peers hand off at once, each promoted peer's
            # inherited pointers may name departed addresses; the reply
            # (reflecting all previously processed handoffs) plus the
            # RingNotify assertions it triggers make the ring converge.
            self._send_repair(msg.address)
        elif msg.kind == "s_join":
            # Already counted optimistically at assignment time; the
            # confirmation only matters when the peer was re-anchored
            # between assignment and completion (crash redirects).
            pass
        elif msg.kind == "s_leave":
            if msg.extra in self.s_counts:
                self.s_counts[msg.extra] = max(0, self.s_counts[msg.extra] - 1)
            self.s_count = max(0, self.s_count - 1)
        else:
            raise ValueError(f"unknown ServerUpdate kind {msg.kind!r}")

    # ------------------------------------------------------------------
    # Crash arbitration (Section 3.2)
    # ------------------------------------------------------------------
    def on_CrashReport(self, msg: CrashReport) -> None:
        crashed = msg.crashed
        p_id = self.ring.pid_of(crashed)
        if p_id is None:
            # Already replaced (or never a t-peer): redirect the reporter
            # to whoever owns that spot now, if anyone.
            if self._last_winner_for(crashed) != -1:
                self.send(msg.reporter, RejoinRedirect(new_t=self._last_winner_for(crashed)))
            return
        election = self._elections.get(crashed)
        if election is None:
            election = _Election(crashed=crashed, p_id=p_id)
            self._elections[crashed] = election
            self.engine.call_later(
                self.config.election_grace, self._close_election, crashed
            )
        if election.decided:
            self._answer_reporter(msg, election)
            return
        if msg.reporter_is_speer:
            election.s_reporters.append(msg.reporter)
            # First s-peer to report wins (FCFS; the paper allows
            # "random or the peer with the smallest IP address").
            self._decide(election, winner=msg.reporter)
        else:
            election.t_reporters.append(msg.reporter)

    def _decide(self, election: _Election, winner: int) -> None:
        election.decided = True
        election.winner = winner
        (pred_pid, pred), (suc_pid, suc) = self.ring.neighbors_of(election.crashed)
        self.ring.substitute(election.crashed, winner)
        count = self.s_counts.pop(election.crashed, 0)
        self.s_counts[winner] = max(0, count - 1)
        self.s_count = max(0, self.s_count - 1)
        if election.crashed in self.t_coords:
            self.t_coords[winner] = self.t_coords.pop(election.crashed)
        self.send(
            winner,
            PromoteToTPeer(
                crashed=election.crashed,
                p_id=election.p_id,
                predecessor=pred if pred != election.crashed else winner,
                predecessor_pid=pred_pid if pred != election.crashed else election.p_id,
                successor=suc if suc != election.crashed else winner,
                successor_pid=suc_pid if suc != election.crashed else election.p_id,
            ),
        )
        for reporter in election.s_reporters:
            if reporter != winner:
                self.send(reporter, RejoinRedirect(new_t=winner))
        for reporter in election.t_reporters:
            self._send_repair(reporter)
        self.emit("server.election", crashed=election.crashed, winner=winner)

    def _close_election(self, crashed: int) -> None:
        """Grace expired: no s-peer replacement exists; excise the ring."""
        election = self._elections.get(crashed)
        if election is None or election.decided:
            return
        election.decided = True
        self.ring.remove(crashed)
        self.s_counts.pop(crashed, None)
        self.t_count -= 1
        for reporter in election.t_reporters:
            self._send_repair(reporter)
        self.emit("server.excise", crashed=crashed)

    def _answer_reporter(self, msg: CrashReport, election: _Election) -> None:
        if msg.reporter_is_speer:
            if election.winner != -1:
                self.send(msg.reporter, RejoinRedirect(new_t=election.winner))
        else:
            self._send_repair(msg.reporter)

    def _send_repair(self, t_address: int) -> None:
        if t_address not in self.ring:
            return
        (pred_pid, pred), (suc_pid, suc) = self.ring.neighbors_of(t_address)
        self.send(
            t_address,
            RingRepairReply(
                predecessor=pred,
                predecessor_pid=pred_pid,
                successor=suc,
                successor_pid=suc_pid,
            ),
        )

    def _last_winner_for(self, crashed: int) -> int:
        election = self._elections.get(crashed)
        return election.winner if election is not None else -1

    def on_LoadTransfer(self, msg: LoadTransfer) -> None:
        """Relay a stranded departure dump to the current segment owner.

        A disconnected leaver whose cached pointers all went stale falls
        back to the server; the directory still knows who anchors the
        items' segment.
        """
        if not self.ring or not msg.items:
            return
        _, owner = self.ring.owner_of(msg.items[0][2])
        self.send(owner, msg)

    def on_SRejoinRequest(self, msg: SRejoinRequest) -> None:
        """Route a stale rejoin to the current anchor of the segment."""
        if not self.ring:
            return
        _, owner = self.ring.owner_of(msg.p_id)
        self.send(owner, msg)

    def on_RingRepairRequest(self, msg: RingRepairRequest) -> None:
        """A t-peer noticed a dead ring neighbor; hand it fresh pointers."""
        suspect = msg.suspect
        if suspect in self.ring and not self.transport.is_reachable(suspect):
            # Treat like a crash report from a t-peer.
            self.on_CrashReport(
                CrashReport(crashed=suspect, reporter=msg.sender, reporter_is_speer=False)
            )
        else:
            if suspect in self.ring:
                # The transport still believes the suspect is up.  In the
                # live runtime reachability only flips after a delivery
                # fails, and the server may not have sent the suspect
                # anything since it died -- so probe it.  A dead suspect
                # exhausts the connect retries and turns unreachable,
                # letting the reporter's next repair request (neighbor
                # timers re-fire periodically) take the crash path; a
                # live suspect just ignores a stray HELLO.
                self.send(suspect, Hello())
            self._send_repair(msg.sender)

    def unhandled(self, msg: Message) -> None:
        raise NotImplementedError(
            f"server has no handler for {type(msg).__name__}"
        )
