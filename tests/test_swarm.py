"""repro.swarm: manifests, bitmaps, rarest-first, tracker, sim swarm.

Unit coverage for the pure pieces (hashing, bitmaps, selection,
tracker book-keeping) plus deterministic end-to-end flash crowds on
the simulator: publish chunked content from one s-peer, fetch it from
several others, and check that the bytes verify, the load spreads off
the publisher, and repeated runs are bit-identical.
"""

from __future__ import annotations

import pytest

from repro.core.config import HybridConfig
from repro.core.hybrid import HybridSystem
from repro.swarm import SwarmMixin
from repro.swarm import manifest as mf
from repro.swarm.pieces import (
    bitmap_all,
    bitmap_count,
    bitmap_get,
    bitmap_new,
    bitmap_set,
    rarest_first,
)
from repro.swarm.tracker import SwarmTracker


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
def test_manifest_roundtrip() -> None:
    data = bytes(range(256)) * 41  # 10496 bytes, not piece-aligned
    manifest = mf.build_manifest(data, 1000)
    assert mf.is_manifest(manifest)
    assert manifest["length"] == len(data)
    assert len(manifest["pieces"]) == 11  # 10 full + 1 short
    pieces = mf.split_pieces(data, 1000)
    assert all(
        mf.verify_piece(manifest, i, p) for i, p in enumerate(pieces)
    )
    assert mf.assemble(manifest, dict(enumerate(pieces))) == data


def test_manifest_empty_content() -> None:
    manifest = mf.build_manifest(b"", 4096)
    assert manifest["length"] == 0
    assert len(manifest["pieces"]) == 1
    assert mf.verify_piece(manifest, 0, b"")
    assert mf.assemble(manifest, {0: b""}) == b""


def test_verify_piece_rejects_corruption() -> None:
    # Offset each piece's pattern so no two pieces share bytes.
    data = bytes((i + i // 1024) % 256 for i in range(4096))
    manifest = mf.build_manifest(data, 1024)
    pieces = mf.split_pieces(data, 1024)
    flipped = bytes([pieces[1][0] ^ 0xFF]) + pieces[1][1:]
    assert not mf.verify_piece(manifest, 1, flipped)
    # Right bytes under the wrong index fail too.
    assert not mf.verify_piece(manifest, 0, pieces[1])
    # Truncation is caught by the length check.
    assert not mf.verify_piece(manifest, 1, pieces[1][:-1])
    # Out-of-range index is a clean False, not an IndexError.
    assert not mf.verify_piece(manifest, 99, pieces[1])


def test_assemble_refuses_missing_and_corrupt() -> None:
    data = b"0123456789" * 100
    manifest = mf.build_manifest(data, 256)
    pieces = dict(enumerate(mf.split_pieces(data, 256)))
    incomplete = dict(pieces)
    del incomplete[2]
    with pytest.raises(ValueError, match="missing"):
        mf.assemble(manifest, incomplete)
    swapped = dict(pieces)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    with pytest.raises(ValueError):
        mf.assemble(manifest, swapped)


def test_is_manifest_rejects_plain_values() -> None:
    assert not mf.is_manifest("a string")
    assert not mf.is_manifest({"swarm": 1})  # missing content/pieces
    assert not mf.is_manifest({"content": "x", "pieces": []})
    assert not mf.is_manifest(None)


def test_split_pieces_validates_size() -> None:
    with pytest.raises(ValueError):
        mf.split_pieces(b"xy", 0)


# ----------------------------------------------------------------------
# Bitmaps
# ----------------------------------------------------------------------
def test_bitmap_basics() -> None:
    bm = bitmap_new(20)
    assert len(bm) == 3 and bitmap_count(bm) == 0
    bitmap_set(bm, 0)
    bitmap_set(bm, 9)
    bitmap_set(bm, 19)
    assert bitmap_get(bm, 9) and not bitmap_get(bm, 10)
    assert bitmap_count(bm) == 3
    # Out-of-range reads are False, not IndexError.
    assert not bitmap_get(bm, 200)
    # Sets grow the map.
    bitmap_set(bm, 40)
    assert bitmap_get(bm, 40) and bitmap_count(bm) == 4


def test_bitmap_all_sets_exactly_n_bits() -> None:
    for n in (0, 1, 7, 8, 9, 64, 65):
        bm = bitmap_all(n)
        assert bitmap_count(bm) == n
        assert not bitmap_get(bm, n)  # pad bits stay clear


# ----------------------------------------------------------------------
# Rarest-first selection
# ----------------------------------------------------------------------
def test_rarest_first_prefers_rare_pieces() -> None:
    # Piece 3 exists on one holder only; everything else on both.
    full = bytes(bitmap_all(4))
    partial = bytearray(bitmap_all(4))
    partial[0] &= ~(1 << 3) & 0xFF
    plan = rarest_first(
        4, have=set(), requested=set(),
        holder_maps={10: bytes(partial), 20: full},
        inflight={}, max_inflight=4, budget=1,
    )
    assert plan == [(3, 20)]  # the rare piece, from its only source


def test_rarest_first_respects_inflight_cap_and_budget() -> None:
    full = bytes(bitmap_all(8))
    plan = rarest_first(
        8, have=set(), requested=set(),
        holder_maps={10: full}, inflight={10: 2},
        max_inflight=3, budget=8,
    )
    # One slot left under the cap: exactly one request may be planned.
    assert len(plan) == 1 and plan[0][1] == 10


def test_rarest_first_skips_held_and_requested() -> None:
    full = bytes(bitmap_all(4))
    plan = rarest_first(
        4, have={0, 1}, requested={2},
        holder_maps={10: full}, inflight={},
        max_inflight=4, budget=8,
    )
    assert [index for index, _ in plan] == [3]


def test_rarest_first_is_deterministic_and_salt_spreads() -> None:
    full = bytes(bitmap_all(16))
    maps = {10: full, 20: full, 30: full}
    kw = dict(have=set(), requested=set(), holder_maps=maps,
              inflight={}, max_inflight=2, budget=4)
    assert rarest_first(16, salt=7, **kw) == rarest_first(16, salt=7, **kw)
    picks_a = {h for _, h in rarest_first(16, salt=1, **kw)}
    picks_b = {h for _, h in rarest_first(16, salt=2, **kw)}
    # Different salts must not stampede one identical holder.
    assert len(picks_a | picks_b) > 1


# ----------------------------------------------------------------------
# Tracker
# ----------------------------------------------------------------------
def test_tracker_announce_have_and_ranking() -> None:
    tracker = SwarmTracker()
    tracker.announce("c1", holder=10, n_pieces=8, have=bytes(bitmap_all(8)))
    tracker.announce("c1", holder=20, n_pieces=8, have=bytes(bitmap_new(8)))
    tracker.have("c1", holder=20, piece=5, n_pieces=8)
    holders = tracker.holders_for("c1")
    assert [addr for addr, _ in holders] == [10, 20]  # best-stocked first
    assert bitmap_get(holders[1][1], 5)
    # The requester is excluded from its own answer.
    assert [a for a, _ in tracker.holders_for("c1", exclude=10)] == [20]
    assert tracker.holder_count("c1") == 2
    assert tracker.n_pieces("c1") == 8


# ----------------------------------------------------------------------
# Simulated flash crowd
# ----------------------------------------------------------------------
def _swarm_system(n_peers: int = 16, seed: int = 3) -> HybridSystem:
    config = HybridConfig(
        p_s=0.7, snetwork_style="bittorrent", swarm_piece_size=1_000,
        swarm_inflight=4, swarm_request_timeout=250.0,
    )
    system = HybridSystem(config, n_peers=n_peers, seed=seed)
    system.build()
    return system


def test_sim_publish_and_crowd_fetch() -> None:
    system = _swarm_system()
    s_peers = sorted(system.s_peers(), key=lambda p: p.address)
    publisher, fetchers = s_peers[0], s_peers[1:9]
    data = bytes(i % 251 for i in range(26_000))  # 26 pieces

    tx_by_peer: dict = {}

    def _count(rec) -> None:
        if rec.payload.get("dir") == "tx":
            addr = rec.payload["peer"]
            tx_by_peer[addr] = tx_by_peer.get(addr, 0) + 1

    system.trace.subscribe("swarm.piece", _count)
    manifest = publisher.swarm_publish("hot", data)
    assert len(manifest["pieces"]) == 26
    system.settle(2_000.0)

    results: list = []
    for peer in fetchers:
        peer.swarm_fetch(manifest, lambda d, info: results.append((d, info)))
    system.engine.run_while(lambda: len(results) < len(fetchers), 5_000_000)
    system.trace.unsubscribe("swarm.piece", _count)

    assert len(results) == len(fetchers)
    assert all(d == data for d, _ in results)
    assert all(info["integrity_failures"] == 0 for _, info in results)
    # The swarm effect: fetchers re-serve pieces, so the publisher does
    # not carry the whole crowd alone.
    served_by_others = sum(
        n for addr, n in tx_by_peer.items() if addr != publisher.address
    )
    assert served_by_others > 0
    # A completed fetcher is itself a full seed now.
    content = manifest["content"]
    assert len(fetchers[0].swarm_pieces[content]) == 26


def test_sim_fetch_from_local_seed_is_immediate() -> None:
    system = _swarm_system(n_peers=12, seed=5)
    publisher = sorted(system.s_peers(), key=lambda p: p.address)[0]
    data = b"x" * 5_000
    manifest = publisher.swarm_publish("self", data)
    results: list = []
    publisher.swarm_fetch(manifest, lambda d, info: results.append(d))
    assert results == [data]  # no messages needed


def test_sim_crowd_is_deterministic() -> None:
    def run_once() -> list:
        system = _swarm_system(n_peers=14, seed=9)
        s_peers = sorted(system.s_peers(), key=lambda p: p.address)
        publisher, fetchers = s_peers[0], s_peers[1:4]
        events: list = []
        system.trace.subscribe(
            "swarm.piece",
            lambda rec: events.append((rec.time, tuple(sorted(rec.payload.items())))),
        )
        data = bytes(i % 17 for i in range(9_500))
        manifest = publisher.swarm_publish("det", data)
        system.settle(1_000.0)
        done: list = []
        for peer in fetchers:
            peer.swarm_fetch(manifest, lambda d, info: done.append(d == data))
        system.engine.run_while(lambda: len(done) < len(fetchers), 5_000_000)
        assert done == [True, True, True]
        return events

    assert run_once() == run_once()


def test_swarm_disabled_allocates_nothing_active() -> None:
    config = HybridConfig()
    assert config.snetwork_style == "gnutella"
    system = HybridSystem(config, n_peers=10, seed=1)
    system.build()
    for peer in system.alive_peers():
        # Off means not composed: no swarm state, handlers or API.
        assert not isinstance(peer, SwarmMixin)
        for name in ("swarm_pieces", "swarm_tracker", "_swarm_downloads",
                     "swarm_fetch", "on_PieceRequest"):
            assert not hasattr(peer, name), name


def test_config_validates_swarm_knobs() -> None:
    with pytest.raises(ValueError, match="swarm_piece_size"):
        HybridConfig(swarm_piece_size=0).validate()
    with pytest.raises(ValueError, match="swarm_inflight"):
        HybridConfig(swarm_inflight=0).validate()
    with pytest.raises(ValueError, match="swarm_request_timeout"):
        HybridConfig(swarm_request_timeout=0.0).validate()
