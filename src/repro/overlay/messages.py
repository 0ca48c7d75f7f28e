"""Message taxonomy of the hybrid protocol.

Every overlay exchange in the system is one of the record types below.
Messages carry the sender's address (filled in by the transport), a
``size`` used by the heterogeneous-capacity delay model, and
type-specific payload fields.

Naming follows the paper's prose: ``TJoin*`` / ``TLeave*`` are the
join/leave triangles of Section 3.3, ``SJoin*`` the degree-constrained
tree join of Section 3.2.2, ``Hello``/``Ack`` the crash-detection
heartbeats, and ``FloodQuery`` the Gnutella-style TTL flood.  Requests
travelling along the t-network ring (``TJoinRequest``,
``StoreRequest``, ``LookupRequest``) are re-sent hop by hop rather than
wrapped: every t-peer re-evaluates ownership before forwarding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "Message",
    "CONTROL_SIZE",
    "ITEM_SIZE",
    # server
    "ServerJoin",
    "ServerJoinReply",
    "CrashReport",
    "PromoteToTPeer",
    # t-network membership
    "TJoinRequest",
    "TJoinSetNeighbors",
    "TJoinNotifySuccessor",
    "TJoinAck",
    "TLeaveRequest",  # reserved wire id, never sent
    "TLeaveToPre",
    "TLeaveToSuc",
    "TLeaveAck",
    "FingerSubstitute",
    "RoleHandoff",
    "RoleHandoffAck",
    # s-network membership
    "SJoinRequest",
    "SJoinAccept",
    "SLeaveNotify",
    "SRejoinRequest",
    # liveness
    "Hello",
    "Ack",
    # data plane
    "StoreRequest",
    "StoreAck",
    "SpreadStore",
    "LookupRequest",
    "FloodQuery",
    "WalkQuery",
    "PartialQuery",  # reserved wire id, never sent
    "PartialResult",  # reserved wire id, never sent
    "DataFound",
    "LoadTransfer",
    "LoadTransferAck",
    "CollectLoad",
    "SegmentGrow",
    "TPeerUpdate",
    "RingRepairRequest",
    "RingRepairReply",
    "RingNotify",
    "RejoinRedirect",
    "ServerUpdate",
    "CachePush",
    "ReplicaPush",  # reserved wire id, never sent
    "BTRegister",  # reserved wire id, never sent
    "BTLookup",  # reserved wire id, never sent
    "BTLookupReply",
    "BTFetch",  # reserved wire id, never sent
    # repro.replica: k-successor segment replication (appended in PR 7;
    # wire ids derive from position, so new classes only ever go here)
    "ReplicaWrite",
    "ReplicaAck",
    "ReplicaSyncRequest",
    "ReplicaSyncResponse",
    # repro.swarm: tracker-mode bulk transfer (appended in PR 8)
    "AnnounceRequest",
    "AnnounceResponse",
    "HaveAnnounce",
    "PieceRequest",
    "PieceResponse",
    # codec hook
    "wire_types",
]

# Nominal message sizes (in abstract size units consumed by the
# capacity model).  Control traffic is small; each data item adds
# ITEM_SIZE.  Only ratios matter.
CONTROL_SIZE: float = 1.0
ITEM_SIZE: float = 10.0


@dataclass(slots=True)
class Message:
    """Base class: transport metadata common to all messages."""

    # Filled by the transport on send; -1 means "not yet sent".
    sender: int = field(default=-1, init=False)
    hop_count: int = field(default=0, init=False)

    # Size in abstract units.  A plain class attribute (deliberately
    # unannotated, so not a dataclass field): control messages share
    # this constant, bulk messages override it with a @property.
    size = CONTROL_SIZE


# ----------------------------------------------------------------------
# Bootstrap server exchanges (Section 3.2)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class ServerJoin(Message):
    """New peer asks the well-known server to join the system."""

    address: int = 0
    capacity: float = 1.0
    interest: Optional[str] = None
    coordinate: Optional[Tuple[int, ...]] = None  # landmark bin (Section 5.2)


@dataclass(slots=True)
class ServerJoinReply(Message):
    """Server's answer: assigned role, id material and an entry peer."""

    role: str = "s"  # "t" or "s"
    p_id: int = 0
    entry_peer: int = -1  # address of existing peer to contact (-1: first peer)
    landmarks: Tuple[int, ...] = ()


@dataclass(slots=True)
class CrashReport(Message):
    """A peer reports a suspected crashed neighbor to the server.

    For a crashed t-peer, disconnected s-peers "compete to replace the
    crashed t-peer by sending messages to the server" -- this is that
    message.
    """

    crashed: int = -1
    reporter: int = -1
    reporter_is_speer: bool = True


@dataclass(slots=True)
class PromoteToTPeer(Message):
    """Server tells the winning s-peer to take over a crashed t-peer."""

    crashed: int = -1
    p_id: int = 0
    predecessor: int = -1
    predecessor_pid: int = 0
    successor: int = -1
    successor_pid: int = 0


# ----------------------------------------------------------------------
# t-network membership (Sections 3.2.1, 3.3)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class TJoinRequest(Message):
    """Join request forwarded along the ring to the insertion point."""

    new_address: int = 0
    new_pid: int = 0


@dataclass(slots=True)
class TJoinSetNeighbors(Message):
    """Leg 1 of the join triangle: pre -> new, carrying suc's address."""

    pre: int = -1
    pre_pid: int = 0
    suc: int = -1
    suc_pid: int = 0
    assigned_pid: int = 0


@dataclass(slots=True)
class TJoinNotifySuccessor(Message):
    """Leg 2 of the join triangle: new -> suc."""

    new_address: int = 0
    new_pid: int = 0
    pre: int = -1


@dataclass(slots=True)
class TJoinAck(Message):
    """Leg 3 of the join triangle: suc -> pre, completing the join."""

    new_address: int = 0


@dataclass(slots=True)
class TLeaveRequest(Message):
    """Reserved wire id: never sent (``leave()`` starts a t-peer leave)."""


@dataclass(slots=True)
class TLeaveToPre(Message):
    """Leg 1 of the leave triangle: leaver -> pre, carrying suc."""

    leaver: int = -1
    suc: int = -1
    suc_pid: int = 0


@dataclass(slots=True)
class TLeaveToSuc(Message):
    """Leg 2 of the leave triangle: pre -> suc, naming the leaver."""

    leaver: int = -1
    pre: int = -1
    pre_pid: int = 0


@dataclass(slots=True)
class TLeaveAck(Message):
    """Leg 3 of the leave triangle: suc -> leaver."""


@dataclass(slots=True)
class FingerSubstitute(Message):
    """Replace ``old`` with ``new`` in finger tables (role handoff).

    The headline maintenance saving of the hybrid design: substitution
    keeps t-peer positions unchanged, so fingers need a pointer swap,
    never recomputation.
    """

    old: int = -1
    new: int = -1
    origin: int = -1  # initiator of a ring circulation
    circulate: bool = False  # forward around the ring (finger mode)


@dataclass(slots=True)
class RoleHandoff(Message):
    """A leaving t-peer transfers its role to a chosen s-peer.

    Carries the full t-peer state: ring pointers, finger table, data
    items, and the s-network neighbor list.
    """

    p_id: int = 0
    predecessor: int = -1
    predecessor_pid: int = 0
    successor: int = -1
    successor_pid: int = 0
    fingers: Tuple[Tuple[int, int], ...] = ()  # (pid, address) pairs
    items: Tuple[Tuple[str, Any, int], ...] = ()  # (key, value, d_id)
    s_neighbors: Tuple[int, ...] = ()

    @property
    def size(self) -> float:
        return CONTROL_SIZE + ITEM_SIZE * len(self.items)


@dataclass(slots=True)
class RoleHandoffAck(Message):
    """New t-peer confirms the handoff to the leaving t-peer."""


# ----------------------------------------------------------------------
# s-network membership (Section 3.2.2)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class SJoinRequest(Message):
    """Join request walking a random branch until degree < delta."""

    new_address: int = 0


@dataclass(slots=True)
class SJoinAccept(Message):
    """Connect point accepts the new s-peer.

    Carries the s-network's t-peer address and the shared ``p_id`` ("the
    p_id of the s-peer is the same as its neighbor").
    """

    cp: int = -1
    t_peer: int = -1
    p_id: int = 0
    segment_lo: int = 0  # lower (exclusive) bound of the s-network's segment


@dataclass(slots=True)
class SLeaveNotify(Message):
    """Graceful s-peer leave notification to each neighbor."""

    leaver: int = -1


@dataclass(slots=True)
class SRejoinRequest(Message):
    """A disconnected s-peer (cp left/crashed) rejoins via the t-peer.

    Carries the requester's ``p_id`` so the bootstrap server can route
    retries to whoever currently anchors that segment when the cached
    ``t_peer`` pointer has gone stale (the anchor departed or was
    replaced while the requester was disconnected).
    """

    new_address: int = 0
    p_id: int = 0


# ----------------------------------------------------------------------
# Liveness (Section 3.2.2)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class Hello(Message):
    """Periodic heartbeat to a neighbor."""


@dataclass(slots=True)
class Ack(Message):
    """Acknowledgment of a data query; doubles as a liveness proof."""

    query_id: int = -1


# ----------------------------------------------------------------------
# Data plane (Section 3.4)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class StoreRequest(Message):
    """Insert a (key, value) item; forwarded along the ring if remote.

    ``write_id`` (appended for repro.replica) is the origin's tracking
    id for a quorum-acknowledged durable write; -1 -- the wire default,
    so pre-replica senders interoperate -- means untracked fire-and-
    forget store semantics, exactly as before.
    """

    key: str = ""
    value: Any = None
    d_id: int = 0
    origin: int = -1
    write_id: int = -1

    # Constant size: a plain class attribute avoids a property call on
    # the transport hot path.
    size = CONTROL_SIZE + ITEM_SIZE


@dataclass(slots=True)
class SpreadStore(Message):
    """Placement scheme 2: random spreading among t-peer's neighbors.

    ``write_id`` rides along like on :class:`StoreRequest`: >= 0 means
    the origin is waiting for a landed ack from whichever peer the
    spreading walk finally picks; -1 (the wire default) keeps the
    fire-and-forget semantics for pre-existing senders.
    """

    key: str = ""
    value: Any = None
    d_id: int = 0
    origin: int = -1
    write_id: int = -1

    # Constant size: a plain class attribute avoids a property call on
    # the transport hot path.
    size = CONTROL_SIZE + ITEM_SIZE


@dataclass(slots=True)
class LookupRequest(Message):
    """Lookup travelling the ring toward the owning segment."""

    d_id: int = 0
    key: str = ""
    origin: int = -1
    query_id: int = -1
    ttl: int = 0  # flood radius to use in the destination s-network
    attempt: int = 0  # reflood counter (re-keys flood deduplication)
    span_id: int = -1  # lookup trace span (observability; -1 = untraced)


@dataclass(slots=True)
class FloodQuery(Message):
    """TTL-bounded flood inside an s-network tree."""

    d_id: int = 0
    key: str = ""
    origin: int = -1
    query_id: int = -1
    ttl: int = 0
    attempt: int = 0  # reflood counter (re-keys flood deduplication)
    span_id: int = -1  # lookup trace span (observability; -1 = untraced)


@dataclass(slots=True)
class WalkQuery(Message):
    """A random walker inside an s-network (alternative to flooding).

    Forwarded to ONE random tree neighbor per hop until the item is
    found or the hop budget runs out (Section 1 names random walks as
    the other unstructured search primitive).
    """

    d_id: int = 0
    key: str = ""
    origin: int = -1
    query_id: int = -1
    ttl: int = 0
    span_id: int = -1  # lookup trace span (observability; -1 = untraced)


@dataclass(slots=True)
class PartialQuery(Message):
    """Reserved wire id: never sent (Section 5.3's prefix search is not built)."""


@dataclass(slots=True)
class PartialResult(Message):
    """Reserved wire id: never sent (Section 5.3's prefix search is not built)."""


@dataclass(slots=True)
class DataFound(Message):
    """Positive lookup answer sent directly to the querying peer.

    Carries the holder's s-network identity (``holder_pid`` plus its
    segment's lower bound) so bypass rule 3 (Section 5.4) can add a
    shortcut for future lookups into that segment.
    """

    query_id: int = -1
    key: str = ""
    value: Any = None
    holder: int = -1
    holder_pid: int = 0
    holder_pred_pid: int = 0
    hops: int = 0  # overlay hops the answered query travelled (tracing)

    # Constant size: a plain class attribute avoids a property call on
    # the transport hot path.
    size = CONTROL_SIZE + ITEM_SIZE


@dataclass(slots=True)
class LoadTransfer(Message):
    """Bulk movement of data items (join load transfer / load dump).

    ``transfer_id >= 0`` requests an acknowledgment: departure-time
    dumps are acked and retried so simultaneous leaves cannot silently
    destroy the handed-over data.
    """

    items: Tuple[Tuple[str, Any, int], ...] = ()  # (key, value, d_id)
    reason: str = "join"
    transfer_id: int = -1
    # Where the ack belongs when the dump was relayed (server fallback).
    origin: int = -1

    @property
    def size(self) -> float:
        return CONTROL_SIZE + ITEM_SIZE * len(self.items)


@dataclass(slots=True)
class StoreAck(Message):
    """Final holder confirms a store to the originating peer.

    Only sent when bypass links (Section 5.4) are enabled: rule 2 adds a
    bypass link between the originator and the holder when they sit in
    different s-networks, so the originator must learn who the holder
    ended up being.  Carries the holder's s-network identity (its
    ``p_id`` and the segment boundary) so the originator can route
    future lookups for that segment over the bypass.
    """

    key: str = ""
    holder: int = -1
    holder_pid: int = 0
    holder_pred_pid: int = 0


@dataclass(slots=True)
class LoadTransferAck(Message):
    """Receipt for an acked LoadTransfer (departure-time dumps)."""

    transfer_id: int = -1


@dataclass(slots=True)
class CollectLoad(Message):
    """Load-transfer instruction flooded through an s-network tree.

    After a t-peer join completes, the successor's whole s-network must
    hand over items in the new peer's segment (Table 1's
    ``loadtransfer`` loops over "each peer in the current s-network").
    This message carries the segment bounds and the new owner's address;
    every receiving member extracts matching items and ships them via
    :class:`LoadTransfer`.
    """

    new_address: int = -1
    new_pid: int = 0
    pred_pid: int = 0


@dataclass(slots=True)
class SegmentGrow(Message):
    """s-network-wide notice that the segment's lower bound moved down.

    Sent when the predecessor t-peer leaves or is excised: the departed
    segment merges into this s-network, so members widen their local
    ownership test.  Flooded down the tree.
    """

    new_lo: int = 0


@dataclass(slots=True)
class TPeerUpdate(Message):
    """s-network-wide notice that the anchoring t-peer changed.

    Flooded through the tree after a role handoff or crash promotion.
    Receivers repoint their ``t_peer`` pointer (and their ``cp`` if it
    was the departed t-peer).
    """

    new_t: int = -1
    old_t: int = -1


@dataclass(slots=True)
class RingRepairRequest(Message):
    """A t-peer asks the server for fresh ring pointers.

    Used when a ring neighbor crashed and no s-peer exists to promote
    (empty s-network): the server is the only party that still knows the
    ring order.
    """

    suspect: int = -1


@dataclass(slots=True)
class RingRepairReply(Message):
    """Server's authoritative answer to a ring repair request."""

    predecessor: int = -1
    predecessor_pid: int = 0
    successor: int = -1
    successor_pid: int = 0


@dataclass(slots=True)
class RingNotify(Message):
    """Chord-style notify: "I am your ring neighbor at this p_id".

    Sent by a freshly promoted t-peer to the neighbors the server's
    authoritative directory names, so that *concurrent adjacent*
    handoffs converge: an announcement addressed to a departed old
    address is simply dropped, and the later handoff's notify fixes the
    earlier peer's stale pointer.  ``claim`` is "pred" ("I am your
    predecessor") or "suc".
    """

    p_id: int = 0
    claim: str = "pred"


@dataclass(slots=True)
class RejoinRedirect(Message):
    """Server points a losing crash reporter at the replacement t-peer.

    The disconnected s-peers that did not win the election rejoin the
    s-network through the promoted peer.
    """

    new_t: int = -1


@dataclass(slots=True)
class ServerUpdate(Message):
    """Registry maintenance notice to the bootstrap server.

    The server keeps an authoritative view of t-network membership (it
    generated every ``p_id``) and of s-network sizes so it can balance
    assignments and arbitrate crash replacements.  ``kind`` is one of
    ``t_join``, ``t_leave``, ``t_handoff``, ``s_join``, ``s_leave``.
    """

    kind: str = ""
    address: int = -1
    p_id: int = 0
    extra: int = -1  # handoff: old address; s_join/s_leave: t-peer address


@dataclass(slots=True)
class CachePush(Message):
    """Origin hands a freshly fetched popular item to its t-peer.

    Part of the caching scheme (the paper's future work): the t-peer
    becomes a surrogate, answering future remote lookups from this
    whole s-network before they reach the ring.
    """

    key: str = ""
    value: Any = None
    d_id: int = 0

    # Constant size: a plain class attribute avoids a property call on
    # the transport hot path.
    size = CONTROL_SIZE + ITEM_SIZE


@dataclass(slots=True)
class ReplicaPush(Message):
    """Reserved wire id: never sent (``repro.replica`` replicates)."""


# ----------------------------------------------------------------------
# BitTorrent-style s-network (Section 5.5): lookups resolve from the
# swarm tracker; only its miss has a message of its own
# ----------------------------------------------------------------------
@dataclass(slots=True)
class BTRegister(Message):
    """Reserved wire id: never sent (holders send ``HaveAnnounce``)."""


@dataclass(slots=True)
class BTLookup(Message):
    """Reserved wire id: never sent (s-peers send ``LookupRequest``)."""


@dataclass(slots=True)
class BTLookupReply(Message):
    """The tracker knows no holder: the origin fails the lookup now."""

    query_id: int = -1


@dataclass(slots=True)
class BTFetch(Message):
    """Reserved wire id: never sent (the tracker forwards a ``FloodQuery``)."""


# ----------------------------------------------------------------------
# repro.replica: k-successor segment replication (durable writes)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class ReplicaWrite(Message):
    """One replica copy travelling down the owner's successor chain.

    The owner t-peer sends this to its ring successor; each receiving
    t-peer stores the copy in its *replica store* (not its database --
    it does not own the segment), acknowledges to ``ack_to`` when the
    write is tracked, and forwards the message onward while
    ``remaining > 0`` and the next successor is neither itself nor
    ``owner`` (small rings stop the chain instead of wrapping).
    """

    key: str = ""
    value: Any = None
    d_id: int = 0
    owner: int = -1  # owning t-peer (chain stop condition)
    ack_to: int = -1  # where ReplicaAck goes; -1 = untracked, no ack
    write_id: int = -1  # owner-scoped pending-write id
    remaining: int = 0  # further chain hops after this receiver

    # Constant size: a plain class attribute avoids a property call on
    # the transport hot path.
    size = CONTROL_SIZE + ITEM_SIZE


@dataclass(slots=True)
class ReplicaAck(Message):
    """Replica confirms a copy; owner reports the quorum decision.

    Two legs share the class: a replica holder acks the owner
    (``final=False``, ``write_id`` is the owner's pending id) and the
    owner notifies the write's origin once the ack quorum is met or
    definitively missed (``final=True``, ``write_id`` is the origin's
    tracking id, ``committed`` carries the verdict).
    """

    write_id: int = -1
    replica: int = -1  # address of the confirming replica holder
    committed: bool = True
    final: bool = False


@dataclass(slots=True)
class ReplicaSyncRequest(Message):
    """Anti-entropy probe: the owner's segment digest, chain-forwarded.

    Each replica holder on the successor chain digests its replica
    store over ``(lo, hi]`` and answers ``origin`` with a
    :class:`ReplicaSyncResponse` when the digests disagree (an empty
    owner digest never matches, which is how a freshly promoted owner
    pulls the whole segment).
    """

    lo: int = 0
    hi: int = 0
    digest: str = ""
    origin: int = -1
    remaining: int = 0


@dataclass(slots=True)
class ReplicaSyncResponse(Message):
    """A replica holder's full segment contents, sent on digest mismatch.

    The owner merges items it is missing into its database and pushes
    items the responder is missing back as targeted
    :class:`ReplicaWrite` messages, repairing both directions.
    """

    lo: int = 0
    hi: int = 0
    items: Tuple[Tuple[str, Any, int], ...] = ()  # (key, value, d_id)

    @property
    def size(self) -> float:
        return CONTROL_SIZE + ITEM_SIZE * len(self.items)


# ----------------------------------------------------------------------
# repro.swarm: tracker-mode chunked bulk transfer (Section 5.5)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class AnnounceRequest(Message):
    """Peer announces its piece bitmap to the tracker and asks for holders.

    Routed like :class:`StoreRequest`: an s-peer sends it to its t-peer,
    t-peers forward along the ring until the segment owner of ``d_id``
    (the tracker for ``content``) handles it.  ``have`` is a
    little-endian byte bitmap (bit ``i`` of byte ``i // 8`` = piece
    ``i``); an all-zero map registers a leech, a full map a seed.
    """

    content: str = ""  # manifest content hash (hex)
    d_id: int = 0  # hash of the content id -> tracker segment
    origin: int = -1
    n_pieces: int = 0
    have: bytes = b""


@dataclass(slots=True)
class AnnounceResponse(Message):
    """Tracker's answer: the other holders and their piece bitmaps."""

    content: str = ""
    n_pieces: int = 0
    holders: Tuple[Tuple[int, bytes], ...] = ()  # (address, bitmap)


@dataclass(slots=True)
class HaveAnnounce(Message):
    """Incremental bitmap update: ``holder`` acquired piece ``piece``.

    Routed to the tracker like :class:`AnnounceRequest`; keeps the
    tracker's availability view fresh without re-announcing the whole
    bitmap after every piece.
    """

    content: str = ""
    d_id: int = 0
    holder: int = -1
    piece: int = 0
    n_pieces: int = 0


@dataclass(slots=True)
class PieceRequest(Message):
    """Direct request for one piece from a peer known to hold it."""

    content: str = ""
    index: int = 0
    origin: int = -1


@dataclass(slots=True)
class PieceResponse(Message):
    """One verified-size piece of content, sent directly to the requester.

    ``data`` is empty when the holder no longer has the piece (the
    requester re-announces and retries elsewhere).
    """

    content: str = ""
    index: int = 0
    data: bytes = b""
    total: int = 0  # n_pieces, so the sim size model can scale per piece

    @property
    def size(self) -> float:
        # The whole item costs ITEM_SIZE; each piece is 1/total of it.
        return CONTROL_SIZE + ITEM_SIZE / max(1, self.total)


# ----------------------------------------------------------------------
# Codec hook (live runtime)
# ----------------------------------------------------------------------
def wire_types() -> Tuple[type, ...]:
    """Every concrete message class, in stable wire-registration order.

    The live runtime's codec (:mod:`repro.runtime.codec`) derives its
    type-id table from this tuple: position in the ``__all__`` listing
    is the wire type id (plus a fixed offset).  Append new message
    classes to ``__all__`` -- never reorder or remove entries -- and
    existing wire ids stay stable across versions.
    """
    module = globals()
    out = []
    for name in __all__:
        obj = module.get(name)
        if isinstance(obj, type) and issubclass(obj, Message) and obj is not Message:
            out.append(obj)
    return tuple(out)
