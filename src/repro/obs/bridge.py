"""TraceBus -> MetricsRegistry adapter.

The simulator announces protocol events on a
:class:`~repro.sim.trace.TraceBus`; the live runtime updates a
:class:`~repro.obs.registry.MetricsRegistry` directly.  This bridge
closes the gap in the sim direction: attach one to an experiment's bus
and the run produces the *same metric names* a live node exposes on
``/metrics`` -- which is what makes live-vs-sim validation of the
reproduction a diff of two scrapes instead of two bespoke reports.

Attaching a bridge subscribes real callbacks, so ``TraceBus.wants()``
starts returning True for the bridged categories and the protocol code
begins building payloads for them.  That cost is opt-in by
construction: the determinism golden and the perf bench run without a
bridge and stay on the no-subscriber fast path.
"""

from __future__ import annotations

from typing import List, Tuple

from ..metrics.collectors import MembershipLog
from ..sim.trace import TraceBus, TraceRecord
from .registry import (
    DEFAULT_CONTACT_BUCKETS,
    DEFAULT_FANOUT_BUCKETS,
    DEFAULT_HOP_BUCKETS,
    DEFAULT_LATENCY_MS_BUCKETS,
    MetricsRegistry,
)

__all__ = ["TraceBridge", "declare_protocol_metrics", "MEMBERSHIP_CATEGORIES"]

# Membership/churn events folded into one labelled counter.  The
# collector that logs these for the churn tests owns the list; reusing
# it keeps the counter and the log covering the same protocol events.
MEMBERSHIP_CATEGORIES: Tuple[str, ...] = MembershipLog.CATEGORIES


def declare_protocol_metrics(registry: MetricsRegistry) -> dict:
    """Declare the shared protocol metric catalogue on ``registry``.

    Called by both the bridge (sim) and the node daemons (live) so the
    two modes agree on names, labels and bucket ladders.  Returns the
    families keyed by short name for callers that bind children.
    """
    return {
        "frames": registry.counter(
            "repro_frames_total",
            "Protocol messages handled, by direction and message type",
            labelnames=("direction", "type"),
        ),
        "lookups": registry.counter(
            "repro_lookups_total",
            "Completed lookups by terminal status",
            labelnames=("status",),
        ),
        "hops": registry.histogram(
            "repro_lookup_hops",
            "Overlay hops travelled by the winning answer of a lookup",
            buckets=DEFAULT_HOP_BUCKETS,
        ),
        "contacts": registry.histogram(
            "repro_lookup_contacts",
            "Distinct overlay contacts consumed by a lookup (connum)",
            buckets=DEFAULT_CONTACT_BUCKETS,
        ),
        "latency": registry.histogram(
            "repro_lookup_latency_ms",
            "Lookup completion latency in protocol milliseconds",
            buckets=DEFAULT_LATENCY_MS_BUCKETS,
        ),
        "hop_events": registry.counter(
            "repro_lookup_hop_events_total",
            "Per-hop lookup trace events, by hop kind (ring/flood/walk)",
            labelnames=("kind",),
        ),
        "fanout": registry.histogram(
            "repro_flood_fanout",
            "s-network flood fan-out per forwarding step",
            buckets=DEFAULT_FANOUT_BUCKETS,
        ),
        "stored": registry.counter(
            "repro_items_stored_total",
            "Data items accepted into local stores",
        ),
        "peer_events": registry.counter(
            "repro_peer_events_total",
            "Membership/churn protocol events, by trace category",
            labelnames=("category",),
        ),
        # --- repro.replica (segment replication + failover) -------------
        "failover": registry.counter(
            "repro_failover_total",
            "Segments whose ownership moved after a crash, by kind "
            "(promotion/absorb)",
            labelnames=("kind",),
        ),
        "repair_items": registry.counter(
            "repro_replica_repair_items_total",
            "Items moved by anti-entropy repair (pulled + pushed)",
        ),
        "replica_lag": registry.gauge(
            "repro_replica_lag",
            "Items the most recently probed replica was missing",
        ),
        "write_quorum_latency": registry.histogram(
            "repro_write_quorum_latency_ms",
            "Origin-observed latency of quorum-acknowledged writes",
            buckets=DEFAULT_LATENCY_MS_BUCKETS,
        ),
        # --- repro.swarm (tracker-mode bulk transfer) --------------------
        "swarm_pieces": registry.counter(
            "repro_swarm_pieces_total",
            "Content pieces transferred over the swarm plane, by direction",
            labelnames=("dir",),
        ),
        "swarm_piece_latency": registry.histogram(
            "repro_swarm_piece_latency_ms",
            "Request-to-receipt latency of individual piece downloads",
            buckets=DEFAULT_LATENCY_MS_BUCKETS,
        ),
        # Live daemons back this same family with a set_function reading
        # the tracker directly; the declaration is idempotent either way.
        "swarm_holders": registry.gauge(
            "repro_swarm_holders",
            "Distinct holders registered with this peer's swarm tracker",
        ),
    }


class TraceBridge:
    """Subscribes registry instruments to a TraceBus.

    One bridge per (bus, registry) pair; ``detach()`` removes every
    subscription it installed (restoring the bus's no-listener fast
    path, relied on by perf tests).
    """

    def __init__(self, bus: TraceBus, registry: MetricsRegistry) -> None:
        self.bus = bus
        self.registry = registry
        fams = declare_protocol_metrics(registry)
        self._frames = fams["frames"]
        self._lookups_ok = fams["lookups"].labels("success")
        self._lookups_fail = fams["lookups"].labels("failure")
        self._hops = fams["hops"].labels()
        self._contacts = fams["contacts"].labels()
        self._latency = fams["latency"].labels()
        self._hop_events = fams["hop_events"]
        self._fanout = fams["fanout"].labels()
        self._stored = fams["stored"].labels()
        self._peer_events = fams["peer_events"]
        self._failover = fams["failover"]
        self._repair_items = fams["repair_items"].labels()
        self._replica_lag = fams["replica_lag"].labels()
        self._quorum_latency = fams["write_quorum_latency"].labels()
        self._swarm_pieces = fams["swarm_pieces"]
        self._swarm_piece_latency = fams["swarm_piece_latency"].labels()
        self._swarm_holders = fams["swarm_holders"].labels()
        self._installed: List[Tuple[str, object]] = []
        self._install()

    # ------------------------------------------------------------------
    def _install(self) -> None:
        pairs = [
            ("transport.send", self._on_send),
            ("lookup.hop", self._on_hop),
            ("lookup.done", self._on_done),
            ("lookup.failed", self._on_failed),
            ("flood.fanout", self._on_fanout),
            ("data.stored", self._on_stored),
            ("replica.commit", self._on_replica_commit),
            ("replica.failover", self._on_replica_failover),
            ("replica.repair", self._on_replica_repair),
            ("replica.lag", self._on_replica_lag),
            ("swarm.piece", self._on_swarm_piece),
            ("swarm.holders", self._on_swarm_holders),
        ]
        pairs.extend((cat, self._on_membership) for cat in MEMBERSHIP_CATEGORIES)
        for cat, fn in pairs:
            self.bus.subscribe(cat, fn)
            self._installed.append((cat, fn))

    def detach(self) -> None:
        for cat, fn in self._installed:
            self.bus.unsubscribe(cat, fn)
        self._installed.clear()

    # ------------------------------------------------------------------
    def _on_send(self, rec: TraceRecord) -> None:
        self._frames.labels("tx", rec.payload.get("kind", "?")).inc()

    def _on_hop(self, rec: TraceRecord) -> None:
        self._hop_events.labels(rec.payload.get("kind", "?")).inc()

    def _on_done(self, rec: TraceRecord) -> None:
        p = rec.payload
        self._lookups_ok.inc()
        self._hops.observe(p.get("hops", 0))
        self._contacts.observe(p.get("contacts", 0))
        self._latency.observe(p.get("latency", 0.0))

    def _on_failed(self, rec: TraceRecord) -> None:
        self._lookups_fail.inc()

    def _on_fanout(self, rec: TraceRecord) -> None:
        self._fanout.observe(rec.payload.get("fanout", 0))

    def _on_stored(self, rec: TraceRecord) -> None:
        self._stored.inc()

    def _on_membership(self, rec: TraceRecord) -> None:
        self._peer_events.labels(rec.category).inc()

    def _on_replica_commit(self, rec: TraceRecord) -> None:
        if rec.payload.get("committed", False):
            self._quorum_latency.observe(rec.payload.get("latency", 0.0))

    def _on_replica_failover(self, rec: TraceRecord) -> None:
        self._failover.labels(rec.payload.get("kind", "?")).inc()

    def _on_replica_repair(self, rec: TraceRecord) -> None:
        self._repair_items.inc(rec.payload.get("items", 0))

    def _on_replica_lag(self, rec: TraceRecord) -> None:
        self._replica_lag.set(float(rec.payload.get("items", 0)))

    def _on_swarm_piece(self, rec: TraceRecord) -> None:
        self._swarm_pieces.labels(rec.payload.get("dir", "?")).inc()
        latency = rec.payload.get("latency")
        if latency is not None:
            self._swarm_piece_latency.observe(float(latency))

    def _on_swarm_holders(self, rec: TraceRecord) -> None:
        self._swarm_holders.set(float(rec.payload.get("holders", 0)))
