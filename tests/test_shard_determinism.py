"""Sharded execution must be bit-identical to single-process execution.

The whole admissibility argument of :mod:`repro.shard` is the one the
golden determinism test makes for the engine rewrite: a cell run over
N worker shards under conservative (null-message) synchronization is
*the same computation* -- same event order per peer, same floating-point
arithmetic, same metric bundle -- as the single-process run.  These
tests compare full :class:`CellResult` values with ``==`` (exact float
equality) across shard counts and configurations, and pin down the
:class:`NullMessageSync` window logic the guarantee rests on.
"""

from __future__ import annotations

import errno
import glob
import logging
import os

import pytest

from repro.core.hybrid import HybridConfig
from repro.exec.pool import CellExecutionError
from repro.experiments.common import Scale, run_cell
from repro.shard import (
    NullMessageSync,
    ShardWorker,
    check_shardable,
    ipc,
    run_cell_sharded,
)
from repro.shard.ipc import SpscRing


@pytest.fixture(scope="module")
def quick_single():
    """The single-process reference result at Scale.quick()."""
    return run_cell(HybridConfig(p_s=0.3), Scale.quick())


class TestBitIdentity:
    def test_crash_cell_matches(self):
        config = HybridConfig(p_s=0.5)
        single = run_cell(config, Scale.quick(), crash_fraction=0.3)
        sharded = run_cell(
            config, Scale.quick(), crash_fraction=0.3, shards=2
        )
        assert sharded == single

    def test_enhancements_cell_matches(self):
        config = HybridConfig(
            p_s=0.6, bypass_links=True, cache_enabled=True,
        )
        single = run_cell(config, Scale.quick())
        sharded = run_cell(config, Scale.quick(), shards=3)
        assert sharded == single

    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_shm_backend_matches_single_process(self, quick_single, shards):
        out = {}
        # The keywords the frozen ledger passes (sim_shard2).
        sharded = run_cell(
            HybridConfig(p_s=0.3), Scale.quick(), shards=shards,
            shard_backend="shm", shards_strict=True, system_out=out,
        )
        assert sharded == quick_single
        info = out["shard_info"]
        assert info["ipc"]["data_frames"] > 0
        assert info["ipc"]["pickled_fallbacks"] == 0

    def test_unknown_shard_backend_rejected(self):
        # The keyword outlives the pipe transport only for the frozen
        # ledger's shard_backend="shm"; anything else must not be
        # silently accepted as if a second transport still existed.
        with pytest.raises(ValueError, match="pipe"):
            run_cell(
                HybridConfig(p_s=0.3), Scale.quick(), shards=2,
                shard_backend="pipe",
            )

    def test_shards_strict_false_rejected(self):
        # Likewise for the ledger's shards_strict=True: False would ask
        # for the single-process fallback, which no longer exists.
        with pytest.raises(ValueError, match="shards_strict=False"):
            run_cell(
                HybridConfig(p_s=0.3), Scale.quick(), shards=2,
                shards_strict=False,
            )

    def test_shm_spill_path_matches(self, quick_single, monkeypatch):
        # Shrink the data rings until windows overflow into the control
        # path: the spilled frames must reorder into the exact same
        # (time, origin, seq) delivery schedule.  The coordinator sizes
        # the rings it creates from the patched constant.
        monkeypatch.setattr(ipc, "DATA_RING_BYTES", 512)
        info = {}
        sharded = run_cell_sharded(
            HybridConfig(p_s=0.3), Scale.quick(), shards=2, info_out=info,
        )
        assert sharded == quick_single
        assert info["ipc"]["spilled_frames"] > 0

    def test_diagnostics_reported(self, quick_single):
        info = {}
        sharded = run_cell_sharded(
            HybridConfig(p_s=0.3), Scale.quick(), shards=2, info_out=info
        )
        assert sharded == quick_single
        assert info["shards"] == 2
        assert info["lookahead_ms"] > 0.0
        assert info["waves"] == -(-Scale.quick().n_lookups // Scale.quick().wave_size)
        # Every shard owns a non-trivial share of the population.
        assert len(info["shard_loads"]) == 2
        assert all(peers > 0 for peers, _items in info["shard_loads"])
        assert info["events_total"] > info["build_events"]


class TestCheckShardable:
    def test_default_config_accepted(self):
        check_shardable(HybridConfig(p_s=0.3))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"replication_factor": 2},
            {"heartbeats_enabled": True},
            {"search_mode": "walk"},
            {"snetwork_style": "bittorrent"},
        ],
    )
    def test_unsupported_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            check_shardable(HybridConfig(p_s=0.3, **kwargs))

    def test_run_cell_falls_back_for_unshardable_config(self):
        # The fallback is explicit now: a cell the sharded substrate
        # cannot host (e.g. fig5b's heartbeat cells) still runs
        # single-process when asked to, and shards=2 refuses it instead
        # of silently running it single-process.
        config = HybridConfig(p_s=0.3, heartbeats_enabled=True)
        single = run_cell(config, Scale.quick())
        assert run_cell(config, Scale.quick(), shards=1) == single
        with pytest.raises(ValueError, match="heartbeats_enabled"):
            run_cell(config, Scale.quick(), shards=2)

    def test_fallback_warning_names_offending_fields(self, caplog):
        # No fallback, so no warning: the refusal itself names every
        # offending field, before anything is built, and logs nothing.
        config = HybridConfig(
            p_s=0.3, heartbeats_enabled=True, search_mode="walk"
        )
        with caplog.at_level(logging.DEBUG):
            with pytest.raises(ValueError) as excinfo:
                run_cell(config, Scale.quick(), shards=2)
        assert "heartbeats_enabled" in str(excinfo.value)
        assert "walk" in str(excinfo.value)
        assert caplog.records == []

    def test_run_cell_sharded_rejects_early(self):
        with pytest.raises(ValueError):
            run_cell_sharded(
                HybridConfig(p_s=0.3, replication_factor=2),
                Scale.quick(),
                shards=2,
            )

    def test_strict_flag_forbids_fallback(self):
        config = HybridConfig(p_s=0.3, heartbeats_enabled=True)
        with pytest.raises(ValueError, match="heartbeats_enabled"):
            run_cell(config, Scale.quick(), shards=2, shards_strict=True)


def _shm_segments() -> set:
    return set(glob.glob("/dev/shm/psm_*"))


def _assert_failed_fork_run_leaks_nothing(exc_type, match) -> None:
    """A failed sharded cell raises ``exc_type`` and unlinks every ring.

    The check runs while ``pytest.raises`` still holds the traceback --
    i.e. while the frames of the failed run, and whatever views into
    the rings they hold, are alive.
    """
    before = _shm_segments()
    with pytest.raises(exc_type, match=match):
        run_cell_sharded(HybridConfig(p_s=0.3), Scale.quick(), shards=2)
    assert _shm_segments() - before == set()


def _patch_shard_one_issue(monkeypatch, fail) -> None:
    original = ShardWorker.issue

    def failing_issue(self, *args, **kwargs):
        if self.shard_index == 1:
            fail()
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ShardWorker, "issue", failing_issue)


class TestWorkerDeath:
    """A failing shard must fail the cell loudly, naming the shard, and
    leave no shared-memory segment behind -- whichever way it failed."""

    def test_dead_worker_raises_with_shard_named(self, monkeypatch):
        _patch_shard_one_issue(monkeypatch, lambda: os._exit(42))
        _assert_failed_fork_run_leaks_nothing(CellExecutionError, "shard 1")

    def test_raising_worker_reports_its_traceback(self, monkeypatch):
        def boom():
            raise RuntimeError("boom in shard one")

        _patch_shard_one_issue(monkeypatch, boom)
        _assert_failed_fork_run_leaks_nothing(
            CellExecutionError, "boom in shard one"
        )

    def test_failed_ring_create_unwinds_the_rings_made(self, monkeypatch):
        create = SpscRing.create.__func__
        made = []

        def create_until_the_fourth(cls, capacity):
            if len(made) == 3:
                raise OSError(errno.ENOSPC, "No space left on device")
            made.append(create(cls, capacity))
            return made[-1]

        monkeypatch.setattr(
            SpscRing, "create", classmethod(create_until_the_fourth)
        )
        _assert_failed_fork_run_leaks_nothing(OSError, "No space left")
        assert len(made) == 3


class TestNullMessageSync:
    """The conservative-sync floor/window logic, in isolation."""

    def test_floor_is_min_over_shards(self):
        sync = NullMessageSync(2, lookahead=5.0)
        sync.note_state(0, 100.0)
        sync.note_state(1, 40.0)
        assert sync.floor() == 40.0
        assert sync.window_end() == 45.0

    def test_idle_shard_does_not_deadlock(self):
        # A shard with no local events must not drag the floor to
        # None/infinity: the other shard's clock defines progress.
        sync = NullMessageSync(2, lookahead=5.0)
        sync.note_state(0, 100.0)
        sync.note_state(1, None)
        assert sync.floor() == 100.0
        assert sync.window_end() == 105.0

    def test_all_idle_with_no_messages_is_terminal(self):
        sync = NullMessageSync(2, lookahead=5.0)
        sync.note_state(0, None)
        sync.note_state(1, None)
        assert sync.floor() is None
        assert sync.window_end() is None

    def test_floor_jumps_over_empty_time(self):
        # Nothing scheduled between 10 and 5000 (e.g. everyone waiting
        # on a lookup timeout): the next window must start at 5000, not
        # crawl there lookahead by lookahead.
        sync = NullMessageSync(2, lookahead=2.0)
        sync.note_state(0, 5000.0)
        sync.note_state(1, 6000.0)
        assert sync.window_end() == 5002.0
