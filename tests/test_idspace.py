"""Unit + property tests for ID-space arithmetic (the protocol's core
invariants live here, so this file leans on hypothesis)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.idspace import ClusteredIdSpace, IdSpace

SPACE = IdSpace(16)  # small space makes edge cases reachable
ids = st.integers(min_value=0, max_value=SPACE.size - 1)


class TestHashing:
    def test_hash_key_deterministic(self):
        s = IdSpace(32)
        assert s.hash_key("abc") == s.hash_key("abc")

    def test_hash_key_in_range(self):
        s = IdSpace(8)
        for key in ("a", "b", "longer-key", ""):
            assert 0 <= s.hash_key(key) < 256

    def test_pinned_hash_value(self):
        # Stability guard: experiments' data placement must not shift
        # between releases.
        assert IdSpace(32).hash_key("pinned") == IdSpace(32).hash_key("pinned")

    def test_bits_validation(self):
        with pytest.raises(ValueError):
            IdSpace(0)
        with pytest.raises(ValueError):
            IdSpace(200)


class TestIntervals:
    def test_plain_interval(self):
        assert SPACE.in_interval(5, 1, 10)
        assert not SPACE.in_interval(1, 1, 10)
        assert not SPACE.in_interval(10, 1, 10)
        assert SPACE.in_interval(10, 1, 10, closed_right=True)
        assert SPACE.in_interval(1, 1, 10, closed_left=True)

    def test_wrapping_interval(self):
        hi = SPACE.size - 5
        assert SPACE.in_interval(2, hi, 10)
        assert SPACE.in_interval(hi + 1, hi, 10)
        assert not SPACE.in_interval(100, hi, 10)

    def test_degenerate_interval_is_whole_circle(self):
        # Single-member-ring semantics: (x, x] covers everything else.
        assert SPACE.in_interval(5, 9, 9)
        assert not SPACE.in_interval(9, 9, 9)
        assert SPACE.in_interval(9, 9, 9, closed_right=True)

    @given(x=ids, left=ids, right=ids)
    @settings(max_examples=300)
    def test_interval_partition(self, x, left, right):
        """Every point is in exactly one of (l, r] and (r, l] -- the
        segments of two adjacent ring members partition the circle."""
        if left == right:
            return
        a = SPACE.in_interval(x, left, right, closed_right=True)
        b = SPACE.in_interval(x, right, left, closed_right=True)
        assert a != b

    @given(x=ids, left=ids, right=ids)
    @settings(max_examples=300)
    def test_open_vs_closed_consistency(self, x, left, right):
        open_ = SPACE.in_interval(x, left, right)
        closed = SPACE.in_interval(
            x, left, right, closed_left=True, closed_right=True
        )
        if open_:
            assert closed

    @given(a=ids, b=ids)
    @settings(max_examples=300)
    def test_distance_antisymmetry(self, a, b):
        d1 = SPACE.distance_cw(a, b)
        d2 = SPACE.distance_cw(b, a)
        if a == b:
            assert d1 == d2 == 0
        else:
            assert d1 + d2 == SPACE.size

    @given(a=ids, b=ids)
    @settings(max_examples=300)
    def test_midpoint_lies_in_arc(self, a, b):
        m = SPACE.midpoint_cw(a, b)
        if SPACE.distance_cw(a, b) >= 2:
            assert SPACE.in_interval(m, a, b) or m == a

    @given(pid=ids, k=st.integers(min_value=0, max_value=15))
    @settings(max_examples=200)
    def test_finger_start_distance(self, pid, k):
        start = SPACE.finger_start(pid, k)
        assert SPACE.distance_cw(pid, start) == (1 << k) % SPACE.size

    def test_finger_start_out_of_range(self):
        with pytest.raises(ValueError):
            SPACE.finger_start(0, 16)


class TestOwnerSegments:
    def test_owner_segment_closed_right(self):
        assert SPACE.owner_segment_contains(10, 5, 10)
        assert not SPACE.owner_segment_contains(5, 5, 10)
        assert SPACE.owner_segment_contains(7, 5, 10)

    @given(d=ids, boundaries=st.lists(ids, min_size=2, max_size=8, unique=True))
    @settings(max_examples=200)
    def test_exactly_one_owner(self, d, boundaries):
        """A set of ring members partitions the id space: every d_id has
        exactly one owner."""
        members = sorted(boundaries)
        owners = 0
        for i, pid in enumerate(members):
            pred = members[i - 1]
            if SPACE.owner_segment_contains(d, pred, pid):
                owners += 1
        assert owners == 1


class TestClusteredIdSpace:
    def test_category_keys_share_band(self):
        cs = ClusteredIdSpace(32, 16)
        ids_ = [cs.hash_key(f"music:item-{i}") for i in range(50)]
        bands = {i >> 16 for i in ids_}
        assert len(bands) == 1

    def test_band_matches_anchor(self):
        cs = ClusteredIdSpace(32, 16)
        anchor = cs.hash_key("music")
        assert anchor >> 16 == cs.hash_key("music:x") >> 16

    def test_different_categories_usually_differ(self):
        cs = ClusteredIdSpace(32, 16)
        assert cs.hash_key("music:a") >> 16 != cs.hash_key("video:a") >> 16

    def test_plain_keys_hash_uniformly(self):
        cs = ClusteredIdSpace(32, 16)
        plain = IdSpace(32)
        assert cs.hash_key("no-category-here") == plain.hash_key("no-category-here")

    def test_band_bits_validation(self):
        with pytest.raises(ValueError):
            ClusteredIdSpace(16, 16)
        with pytest.raises(ValueError):
            ClusteredIdSpace(16, 0)
