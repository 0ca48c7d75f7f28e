"""Shared experiment machinery.

Every reproduction experiment is a parameter sweep over the system
parameter ``p_s`` (and one more axis: TTL, crash fraction, an
enhancement toggle...).  :class:`Scale` fixes the workload size --
``Scale.paper()`` matches the paper's setup (1,000 peers), while
``Scale.quick()`` is the CI/benchmark size that preserves every
qualitative shape at a fraction of the cost.  :func:`run_cell` executes
one cell of a sweep and returns the standard metric bundle.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.config import HybridConfig
from ..core.hybrid import SETTLE_AFTER_CRASH, HybridSystem
from ..core.lookup import QueryRegistry, QueryStats
from ..workloads.keys import KeyWorkload

__all__ = ["Scale", "CellResult", "prepare_cell", "run_cell", "DEFAULT_PS_GRID"]

# The paper sweeps p_s from 0 to 1; 0.99 stands in for the pure-
# unstructured endpoint (p_s = 1 has no t-network to anchor s-networks,
# the degenerate case the paper plots as "Gnutella").
DEFAULT_PS_GRID: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


@dataclass(frozen=True)
class Scale:
    """Workload size of one experiment run.

    ``bulk_build`` selects :meth:`HybridSystem.build_bulk` -- direct
    O(n log n) construction of the joined state instead of replaying
    every join through the message protocol (O(n_t^2) events).  Results
    at a given seed are deterministic either way, but not comparable
    *across* the two build paths, so the large presets that need it set
    it explicitly and the golden-baselined small scales leave it off.
    """

    n_peers: int
    n_keys: int
    n_lookups: int
    seed: int = 0
    wave_size: int = 200
    bulk_build: bool = False

    @classmethod
    def paper(cls, seed: int = 0) -> "Scale":
        """The paper's setup: 1,000-node topologies."""
        return cls(n_peers=1000, n_keys=5000, n_lookups=5000, seed=seed)

    @classmethod
    def medium(cls, seed: int = 0) -> "Scale":
        """Laptop-minutes scale; shapes match the paper run."""
        return cls(n_peers=300, n_keys=1200, n_lookups=1200, seed=seed)

    @classmethod
    def quick(cls, seed: int = 0) -> "Scale":
        """CI/benchmark scale (seconds per cell)."""
        return cls(n_peers=120, n_keys=400, n_lookups=400, seed=seed)

    @classmethod
    def large(cls, seed: int = 0) -> "Scale":
        """10^5 peers: the first point past the paper's reach.

        Requires the bulk build.  Run it single-process: ``shards > 1``
        was measured slower than one process at every scale (the lookup
        phase it spreads is a few percent of a 10^5 cell).
        """
        return cls(
            n_peers=100_000, n_keys=20_000, n_lookups=5_000,
            seed=seed, wave_size=500, bulk_build=True,
        )

    @classmethod
    def huge(cls, seed: int = 0) -> "Scale":
        """10^6 peers: the paper's "millions of users", literally."""
        return cls(
            n_peers=1_000_000, n_keys=50_000, n_lookups=10_000,
            seed=seed, wave_size=1000, bulk_build=True,
        )

    def with_seed(self, seed: int) -> "Scale":
        return replace(self, seed=seed)


@dataclass(frozen=True)
class CellResult:
    """Metrics of one sweep cell."""

    p_s: float
    failure_ratio: float
    mean_latency: float
    median_latency: float
    connum: int
    mean_contacts: float
    successes: int
    failures: int
    n_t_peers: int
    n_s_peers: int

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form; floats survive exactly (repr round-trip)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CellResult":
        """Inverse of :meth:`to_dict`; rejects missing/unknown keys.

        Strictness is what lets the cell cache treat any schema drift
        as a miss instead of resurrecting a result with silently
        defaulted fields.
        """
        names = {f.name for f in fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ValueError(f"unknown CellResult fields: {sorted(unknown)}")
        missing = names - set(data)
        if missing:
            raise ValueError(f"missing CellResult fields: {sorted(missing)}")
        return cls(**data)

    @classmethod
    def from_stats(
        cls, config: HybridConfig, stats: QueryStats, n_t: int, n_s: int
    ) -> "CellResult":
        """The bundle of one finished cell: lookup stats + population."""
        return cls(
            p_s=config.p_s,
            failure_ratio=stats.failure_ratio,
            mean_latency=stats.mean_latency,
            median_latency=stats.median_latency,
            connum=stats.connum,
            mean_contacts=stats.mean_contacts_per_lookup,
            successes=stats.successes,
            failures=stats.failures,
            n_t_peers=n_t,
            n_s_peers=n_s,
        )


def prepare_cell(
    config: HybridConfig,
    scale: Scale,
    crash_fraction: float,
    queries: Optional[QueryRegistry] = None,
) -> Tuple[HybridSystem, List[Tuple[int, str]]]:
    """Build + populate + (crash + settle) + sample: a cell up to its lookups.

    A crash is followed by :data:`~repro.core.hybrid.SETTLE_AFTER_CRASH`
    of simulated time before the lookups are sampled.

    Returns the system and the ``(origin, key)`` lookup pairs.  The one
    construction pipeline of :func:`run_cell`, the sharded executor and
    its inline replicas -- a deterministic function of the arguments,
    which is what lets every shard replica rebuild the same state.
    ``queries`` substitutes the registry (the sharded executor's
    shard-aware one) before any peer captures the reference.
    """
    system = HybridSystem(
        config, n_peers=scale.n_peers, seed=scale.seed, queries=queries
    )
    if scale.bulk_build:
        system.build_bulk()
    else:
        system.build()
    addresses = [p.address for p in system.alive_peers()]
    workload = KeyWorkload.uniform(
        scale.n_keys, addresses, system.rngs.stream("workload")
    )
    system.populate(workload.store_plan())
    if crash_fraction > 0.0:
        system.crash_random_fraction(crash_fraction)
        system.settle(SETTLE_AFTER_CRASH)
    alive = [p.address for p in system.alive_peers()]
    return system, workload.sample_lookups(scale.n_lookups, alive)


def run_cell(
    config: HybridConfig,
    scale: Scale,
    crash_fraction: float = 0.0,
    system_out: Optional[Dict[str, HybridSystem]] = None,
    shards: int = 1,
    shard_backend: Optional[str] = None,
    shards_strict: Optional[bool] = None,
) -> CellResult:
    """Build + populate + (crash) + look up; return the metric bundle.

    ``system_out["system"]`` receives the built system when a dict is
    passed, for experiments that need to inspect more than the bundle.
    With ``shards > 1`` the cell executes on the sharded substrate
    (:mod:`repro.shard`) -- bit-identical metrics, workers in parallel;
    ``system_out`` then receives the shard diagnostics under
    ``"shard_info"`` instead of a system object.  A config the sharded
    substrate cannot host raises ValueError naming the offending fields.
    """
    # There is one fork-mode shard transport and no single-process
    # fallback.  The two keywords survive only because bench/workloads.py
    # (frozen for this change) still passes shard_backend="shm",
    # shards_strict=True; the next benchmark PR drops them from the
    # ledger and then these parameters.
    if shard_backend not in (None, "shm") or shards_strict not in (None, True):
        raise ValueError(
            f"unsupported shard_backend={shard_backend!r} / "
            f"shards_strict={shards_strict!r}: shm is the only transport "
            "and an unshardable cell always raises"
        )
    if shards > 1:
        from ..shard import run_cell_sharded

        info: Dict[str, object] = {}
        result = run_cell_sharded(
            config, scale, crash_fraction,
            shards=shards,
            info_out=info if system_out is not None else None,
        )
        if system_out is not None:
            system_out["shard_info"] = info
        return result
    system, pairs = prepare_cell(config, scale, crash_fraction)
    system.run_lookups(pairs, wave_size=scale.wave_size)
    result = CellResult.from_stats(
        config, system.query_stats(),
        len(system.t_peers()), len(system.s_peers()),
    )
    if system_out is not None:
        system_out["system"] = system
    else:
        system.close()
    return result
