"""Configuration of the hybrid peer-to-peer system.

:class:`HybridConfig` gathers every tunable the paper defines or
implies.  The two headline knobs are ``p_s`` (fraction of s-peers,
Section 3.1) and ``ttl`` (flood radius); ``delta`` is the tree degree
cap of Section 3.2.2 (δ = 3 in the paper's simulations).

Placement, ring routing and the Section 5 enhancements are selected
here so experiments can A/B them without touching protocol code.  Each
enhancement is one switch, not a set of parts: ``heterogeneity_aware``
turns on both halves of Section 5.1 (fast peers become t-peers, and
s-peers pick connect points by link usage), and ``n_landmarks > 0``
turns on Section 5.2's landmark binning of s-network assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..overlay.idspace import ID_BITS

__all__ = [
    "HybridConfig",
    "SEARCH_FLOOD",
    "SEARCH_WALK",
    "PLACEMENT_DIRECT",
    "PLACEMENT_SPREAD",
    "ROUTING_LINEAR",
    "ROUTING_FINGER",
    "ASSIGN_BALANCED",
    "ASSIGN_INTEREST",
    "SNETWORK_GNUTELLA",
    "SNETWORK_BITTORRENT",
]

# s-network search modes (Section 1: "use flooding or random walks to
# look up data items").
SEARCH_FLOOD = "flood"
SEARCH_WALK = "walk"

# Data placement schemes (Section 3.4).
PLACEMENT_DIRECT = "direct"  # scheme 1: owning t-peer stores the item
PLACEMENT_SPREAD = "spread"  # scheme 2: random spreading to s-peers

# Ring forwarding.  The paper's simulation forwards linearly ("the
# number of hops ... is proportional to the total number of t-peers",
# Section 6.3); finger-table routing is the Chord-style acceleration the
# analysis in Section 4 assumes for joins.
ROUTING_LINEAR = "linear"
ROUTING_FINGER = "finger"

# s-network assignment policies at the server (Sections 3.2.2, 5.3).
# Either one bins by landmark coordinate when landmarks exist (5.2).
ASSIGN_BALANCED = "balanced"  # smallest s-network first
ASSIGN_INTEREST = "interest"  # Section 5.3

# s-network style (Sections 3.1, 5.5).
SNETWORK_GNUTELLA = "gnutella"
SNETWORK_BITTORRENT = "bittorrent"


@dataclass(frozen=True)
class HybridConfig:
    """All tunables of the hybrid system.

    Frozen so a config can safely be shared between the system, the
    server and every peer; derive variants with :meth:`with_changes`.
    """

    # --- headline system parameters (Sections 3.1, 6) -----------------
    p_s: float = 0.5
    delta: int = 3
    ttl: int = 4

    # --- data plane ----------------------------------------------------
    placement: str = PLACEMENT_SPREAD
    ring_routing: str = ROUTING_LINEAR
    # How queries traverse an s-network: TTL flood (the paper's default)
    # or k independent random walks.
    search_mode: str = SEARCH_FLOOD
    walkers: int = 4  # concurrent random walkers per query
    walk_ttl: int = 16  # hop budget per walker
    lookup_timeout: float = 60_000.0  # ms
    # On timeout, retry with a grown TTL this many times (Section 3.4:
    # "may choose to increase the TTL value ... and reflood").
    max_refloods: int = 0

    # --- s-network construction ----------------------------------------
    assignment: str = ASSIGN_BALANCED
    # "bittorrent" (Section 5.5): the t-peer is the s-network's tracker,
    # for lookups and bulk content alike (repro.swarm).
    snetwork_style: str = SNETWORK_GNUTELLA
    # Ablation: number of extra non-tree links per s-peer (0 = pure tree,
    # the paper's design; >0 approximates a Gnutella mesh).
    mesh_extra_links: int = 0

    # --- liveness / crash detection (Section 3.2.2) ----------------------
    heartbeats_enabled: bool = False
    # The one liveness clock: neighbor_timeout, ack_suppress and
    # election_grace are fixed multiples of it (properties below).
    hello_period: float = 1_000.0  # ms
    # s-peers retry (re)join walks that got swallowed by a crashed peer.
    join_retry_timeout: float = 5_000.0  # ms

    # --- Section 5 enhancements -----------------------------------------
    # 5.1: fast peers become t-peers, and a connect point takes a child
    # only while its link usage (degree/capacity) stays low.
    heterogeneity_aware: bool = False
    n_landmarks: int = 0  # 5.2: 0 disables binning
    # 5.3: width (in bits) of per-category key bands; 0 = uniform hashing.
    # Interest-based workloads need > 0 so one category maps to one segment.
    interest_band_bits: int = 0
    bypass_links: bool = False  # 5.4
    bypass_lifetime: float = 120_000.0  # ms before an idle bypass expires
    # Durable segment replication (the repro.replica subsystem, not a
    # placement scheme): 1 reproduces the paper exactly (single copy;
    # crashes lose the crashed segments' data, Fig. 5b).  k > 1 keeps
    # the owner t-peer's copy plus replicas on the next k-1 t-peers
    # along the ring, so the segment survives any crash of fewer than k
    # consecutive t-peers and failover promotes the replicas to primary
    # copies.  (Distinct from ``placement``, which only picks *where in
    # one s-network* the single authoritative copy lands.)
    replication_factor: int = 1
    # --- repro.replica: quorum writes + anti-entropy (replication > 1) --
    # Replica acknowledgments required before a tracked write is
    # reported durable to its origin (the owner's own copy counts, so 1
    # acknowledges from the owner alone and replication_factor waits
    # for every successor replica).
    write_quorum: int = 1
    # Owner-side wait per fan-out attempt before re-sending ReplicaWrite
    # to the successor chain.
    replica_ack_timeout: float = 1_000.0  # ms
    # Fan-out re-sends after the first attempt times out.
    replica_write_retries: int = 1
    # Anti-entropy period: the owner digests its segment and probes its
    # replica chain; 0 disables the periodic exchange (event-triggered
    # repair after failover still runs).
    replica_sync_period: float = 0.0  # ms
    # --- repro.swarm: tracker-mode chunked bulk transfer (Section 5.5) --
    # Read only in a BitTorrent-style s-network (snetwork_style above).
    # Bytes per piece for the live runtime's put-file split; the sim
    # uses explicit piece counts, not byte sizes.
    swarm_piece_size: int = 65536
    # Per-holder cap on outstanding PieceRequests from one downloader.
    swarm_inflight: int = 4
    # Downloader tick: stale requested pieces are re-issued and the
    # tracker re-queried (refreshing holder sets mid-download is what
    # makes the swarm effect kick in).
    swarm_request_timeout: float = 2_000.0  # ms
    # Popular-data caching (the paper's stated future work, Section 7).
    cache_enabled: bool = False

    # --- misc ------------------------------------------------------------
    server_address: int = 0

    @property
    def neighbor_timeout(self) -> float:
        """Silence after which a neighbor counts as crashed (ms)."""
        return 3.5 * self.hello_period

    @property
    def ack_suppress(self) -> float:
        """Minimum spacing of one peer's query acknowledgments (ms)."""
        return 0.5 * self.hello_period

    @property
    def election_grace(self) -> float:
        """Server's wait for an s-peer to replace a crashed t-peer (ms)."""
        return 3.0 * self.hello_period

    def validate(self) -> None:
        if not (0.0 <= self.p_s <= 1.0):
            raise ValueError(f"p_s must be in [0, 1], got {self.p_s}")
        if self.delta < 1:
            raise ValueError(f"delta must be >= 1, got {self.delta}")
        if self.ttl < 1:
            raise ValueError(f"ttl must be >= 1, got {self.ttl}")
        if self.placement not in (PLACEMENT_DIRECT, PLACEMENT_SPREAD):
            raise ValueError(f"unknown placement {self.placement!r}")
        if self.search_mode not in (SEARCH_FLOOD, SEARCH_WALK):
            raise ValueError(f"unknown search_mode {self.search_mode!r}")
        if self.walkers < 1:
            raise ValueError("walkers must be >= 1")
        if self.walk_ttl < 1:
            raise ValueError("walk_ttl must be >= 1")
        if self.ring_routing not in (ROUTING_LINEAR, ROUTING_FINGER):
            raise ValueError(f"unknown ring_routing {self.ring_routing!r}")
        if self.lookup_timeout <= 0:
            raise ValueError("lookup_timeout must be positive")
        if self.max_refloods < 0:
            raise ValueError("max_refloods must be non-negative")
        if self.assignment not in (ASSIGN_BALANCED, ASSIGN_INTEREST):
            raise ValueError(f"unknown assignment {self.assignment!r}")
        if self.snetwork_style not in (SNETWORK_GNUTELLA, SNETWORK_BITTORRENT):
            raise ValueError(f"unknown snetwork_style {self.snetwork_style!r}")
        if self.mesh_extra_links < 0:
            raise ValueError("mesh_extra_links must be >= 0")
        if self.hello_period <= 0:
            raise ValueError("hello_period must be positive")
        if self.join_retry_timeout <= 0:
            raise ValueError("join_retry_timeout must be positive")
        if self.n_landmarks < 0:
            raise ValueError("n_landmarks must be >= 0")
        if not (0 <= self.interest_band_bits < ID_BITS):
            raise ValueError(f"interest_band_bits must be in [0, {ID_BITS})")
        if self.bypass_lifetime <= 0:
            raise ValueError("bypass_lifetime must be positive")
        if self.replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if not (1 <= self.write_quorum <= self.replication_factor):
            raise ValueError(
                "write_quorum must be in [1, replication_factor] "
                f"(got {self.write_quorum} with k={self.replication_factor})"
            )
        if self.replica_ack_timeout <= 0:
            raise ValueError("replica_ack_timeout must be positive")
        if self.replica_write_retries < 0:
            raise ValueError("replica_write_retries must be >= 0")
        if self.replica_sync_period < 0:
            raise ValueError("replica_sync_period must be >= 0")
        if self.swarm_piece_size < 1:
            raise ValueError("swarm_piece_size must be >= 1")
        if self.swarm_inflight < 1:
            raise ValueError("swarm_inflight must be >= 1")
        if self.swarm_request_timeout <= 0:
            raise ValueError("swarm_request_timeout must be positive")

    def with_changes(self, **changes) -> "HybridConfig":
        """Return a validated copy with fields replaced."""
        cfg = replace(self, **changes)
        cfg.validate()
        return cfg
