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
        ("connect_policy", "nope"),
        ("assignment", "nope"),
        ("snetwork_style", "nope"),
        ("mesh_extra_links", -1),
        ("hello_period", 0.0),
        ("election_grace", 0.0),
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


def test_neighbor_timeout_must_exceed_hello_period():
    cfg = dataclasses.replace(
        HybridConfig(), hello_period=1000.0, neighbor_timeout=500.0
    )
    with pytest.raises(ValueError, match="neighbor_timeout"):
        cfg.validate()


def test_binned_assignment_requires_landmarks():
    cfg = dataclasses.replace(HybridConfig(), assignment="binned", n_landmarks=0)
    with pytest.raises(ValueError, match="landmark"):
        cfg.validate()


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
