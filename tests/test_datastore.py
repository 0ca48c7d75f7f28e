"""Unit tests for the per-peer data store (Table 1's bulk moves)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DataStore
from repro.overlay.idspace import IdSpace

SPACE = IdSpace(16)


def make_store() -> DataStore:
    return DataStore(SPACE)


class TestBasicOps:
    def test_insert_and_get(self):
        db = make_store()
        db.insert("k", "v")
        item = db.get("k")
        assert item is not None and item.value == "v"
        assert item.d_id == SPACE.hash_key("k")

    def test_overwrite(self):
        db = make_store()
        db.insert("k", "v1")
        db.insert("k", "v2")
        assert db.get("k").value == "v2"
        assert len(db) == 1

    def test_explicit_did(self):
        db = make_store()
        db.insert("k", "v", d_id=42)
        assert db.get("k").d_id == 42

    def test_delete(self):
        db = make_store()
        db.insert("k", "v")
        assert db.delete("k")
        assert not db.delete("k")
        assert db.get("k") is None

    def test_contains_iter_keys(self):
        db = make_store()
        db.insert("a", 1)
        db.insert("b", 2)
        assert "a" in db and "c" not in db
        assert sorted(db.keys()) == ["a", "b"]
        assert {i.key for i in db} == {"a", "b"}


class TestSegmentMoves:
    def test_extract_segment_moves_matching(self):
        db = make_store()
        db.insert("in", None, d_id=10)
        db.insert("out", None, d_id=100)
        moved = db.extract_segment(5, 20)
        assert [i.key for i in moved] == ["in"]
        assert "in" not in db and "out" in db

    def test_extract_segment_boundary_semantics(self):
        # Segment (lo, hi]: lo excluded, hi included.
        db = make_store()
        db.insert("at-lo", None, d_id=5)
        db.insert("at-hi", None, d_id=20)
        moved = db.extract_segment(5, 20)
        assert [i.key for i in moved] == ["at-hi"]

    def test_extract_segment_wraps(self):
        db = make_store()
        db.insert("wrapped", None, d_id=3)
        moved = db.extract_segment(SPACE.size - 10, 5)
        assert [i.key for i in moved] == ["wrapped"]

    @given(
        dids=st.lists(
            st.integers(min_value=0, max_value=SPACE.size - 1),
            min_size=1,
            max_size=30,
        ),
        lo=st.integers(min_value=0, max_value=SPACE.size - 1),
        hi=st.integers(min_value=0, max_value=SPACE.size - 1),
    )
    @settings(max_examples=150)
    def test_extract_conserves_items(self, dids, lo, hi):
        """Load transfer never loses or duplicates items."""
        db = make_store()
        for i, d in enumerate(dids):
            db.insert(f"k{i}", i, d_id=d)
        before = len(db)
        moved = db.extract_segment(lo, hi)
        assert len(moved) + len(db) == before
        for item in moved:
            assert SPACE.owner_segment_contains(item.d_id, lo, hi)
        for item in db:
            assert not SPACE.owner_segment_contains(item.d_id, lo, hi)
