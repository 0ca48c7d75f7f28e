"""Unit tests for HybridConfig validation."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import HybridConfig


def test_defaults_validate():
    HybridConfig().validate()


@pytest.mark.parametrize(
    "field,value",
    [
        ("p_s", -0.1),
        ("p_s", 1.1),
        ("delta", 0),
        ("ttl", 0),
        ("placement", "nope"),
        ("ring_routing", "nope"),
        ("lookup_timeout", 0.0),
        ("max_refloods", -1),
        ("assignment", "nope"),
        ("snetwork_style", "nope"),
        ("mesh_extra_links", -1),
        ("hello_period", 0.0),
        ("join_retry_timeout", 0.0),
        ("n_landmarks", -1),
        ("interest_band_bits", 40),
        ("bypass_lifetime", 0.0),
    ],
)
def test_bad_values_rejected(field, value):
    cfg = dataclasses.replace(HybridConfig(), **{field: value})
    with pytest.raises(ValueError):
        cfg.validate()


def test_liveness_timeouts_follow_hello_period():
    for period, timeout, suppress, grace in (
        (1_000.0, 3_500.0, 500.0, 3_000.0),  # the simulator's default
        (200.0, 700.0, 100.0, 600.0),  # scripts/failover_smoke.py
        (100.0, 350.0, 50.0, 300.0),  # runtime.fast_config
    ):
        cfg = HybridConfig(hello_period=period)
        assert (cfg.neighbor_timeout, cfg.ack_suppress, cfg.election_grace) == (
            timeout, suppress, grace,
        )
    with pytest.raises(TypeError):
        HybridConfig(neighbor_timeout=700.0)  # derived, not a field


def test_option_surface_is_pinned():
    """Every field and policy value is one a caller sets.  A new one
    must come with a caller that wants a different value than the rest;
    a removed one (the connect policies, random/binned assignment) must
    not come back."""
    assert [f.name for f in dataclasses.fields(HybridConfig)] == [
        "p_s", "delta", "ttl",
        "placement", "ring_routing", "search_mode", "walkers", "walk_ttl",
        "lookup_timeout", "max_refloods",
        "assignment", "snetwork_style", "mesh_extra_links",
        "heartbeats_enabled", "hello_period", "join_retry_timeout",
        "heterogeneity_aware", "n_landmarks", "interest_band_bits",
        "bypass_links", "bypass_lifetime",
        "replication_factor", "write_quorum", "replica_ack_timeout",
        "replica_write_retries", "replica_sync_period",
        "swarm_piece_size", "swarm_inflight", "swarm_request_timeout",
        "cache_enabled", "server_address",
    ]
    accepted = set()
    for value in ("balanced", "interest", "random", "binned"):
        try:
            HybridConfig(assignment=value).validate()
        except ValueError:
            continue
        accepted.add(value)
    assert accepted == {"balanced", "interest"}


def test_with_changes_returns_validated_copy():
    base = HybridConfig(p_s=0.5)
    derived = base.with_changes(p_s=0.7, ttl=2)
    assert derived.p_s == 0.7 and derived.ttl == 2
    assert base.p_s == 0.5  # frozen original untouched
    with pytest.raises(ValueError):
        base.with_changes(p_s=2.0)


def test_config_is_hashable_and_frozen():
    cfg = HybridConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.p_s = 0.9  # type: ignore[misc]
    hash(cfg)  # usable as a sweep-cache key
