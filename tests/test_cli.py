"""Tests for the command-line interface."""

from __future__ import annotations

import importlib
import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.peers == 200 and args.ps == 0.7

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "table2", "--scale", "quick"])
        assert args.names == ["table2"]
        args = build_parser().parse_args(["experiment", "fig5", "table2"])
        assert args.names == ["fig5", "table2"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig5", "fig99"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment"])

    def test_sweep_grid(self):
        args = build_parser().parse_args(["sweep", "--grid", "0.1", "0.5"])
        assert args.grid == [0.1, 0.5]

    def test_executor_flags_default_off(self):
        args = build_parser().parse_args(["experiment", "fig5"])
        assert args.jobs is None and args.no_cache is False

    def test_executor_flags_parse(self):
        args = build_parser().parse_args(
            ["sweep", "--jobs", "4", "--no-cache"]
        )
        assert args.jobs == 4 and args.no_cache is True

    def test_node_set_flag_repeats(self):
        args = build_parser().parse_args(
            ["node", "--join", "h:1", "--set", "replication_factor=3",
             "--set", "write_quorum=2"]
        )
        assert args.overrides == ["replication_factor=3", "write_quorum=2"]

    def test_set_overrides_coerce_by_field_type(self):
        from repro.cli import _apply_config_overrides
        from repro.core import HybridConfig

        cfg = _apply_config_overrides(
            HybridConfig(),
            ["replication_factor=3", "write_quorum=2",
             "heartbeats_enabled=true", "replica_sync_period=2000"],
        )
        assert cfg.replication_factor == 3 and cfg.write_quorum == 2
        assert cfg.heartbeats_enabled is True
        assert cfg.replica_sync_period == 2000.0

    def test_set_overrides_reject_unknown_and_invalid(self):
        from repro.cli import _apply_config_overrides
        from repro.core import HybridConfig

        with pytest.raises(SystemExit):
            _apply_config_overrides(HybridConfig(), ["no_such_field=1"])
        with pytest.raises(SystemExit):
            _apply_config_overrides(HybridConfig(), ["id_bits=16"])  # retired
        for derived in ("neighbor_timeout", "ack_suppress", "election_grace"):
            with pytest.raises(SystemExit, match=derived):  # set hello_period
                _apply_config_overrides(HybridConfig(), [f"{derived}=700"])
        with pytest.raises(SystemExit):
            _apply_config_overrides(HybridConfig(), ["write_quorum=9"])
        with pytest.raises(SystemExit):
            _apply_config_overrides(HybridConfig(), ["replication_factor"])


class TestCommands:
    def test_demo_runs(self, capsys):
        rc = main(
            [
                "demo", "--peers", "40", "--keys", "60", "--lookups", "60",
                "--seed", "3",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "failure ratio" in out
        assert "connum" in out

    def test_demo_bittorrent_and_cache_flags(self, capsys):
        rc = main(
            [
                "demo", "--peers", "30", "--keys", "40", "--lookups", "40",
                "--bittorrent", "--cache",
            ]
        )
        assert rc == 0
        assert "0.0000" in capsys.readouterr().out  # zero failures

    def test_analyze_runs(self, capsys):
        rc = main(["analyze", "--points", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Fig. 3a" in out and "Fig. 3b" in out

    def test_sweep_runs(self, capsys):
        rc = main(
            [
                "sweep", "--peers", "30", "--keys", "40", "--lookups", "40",
                "--grid", "0.0", "0.8",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "0.8" in out

    def test_experiment_maintenance(self, capsys, tmp_path):
        # Two names share one run; --out stamps each table into its file.
        rc = main(["experiment", "fig3", "maintenance", "--scale", "quick",
                   "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.index("Fig. 3a") < out.index("maintenance")
        for name in ("fig3", "maintenance"):
            text, stamp = (tmp_path / f"{name}.txt").read_text().split("\n\n[")
            assert text in out
            assert re.fullmatch(r"scale=quick, \d+\.\ds\]\n", stamp)

    @pytest.mark.parametrize(
        "name",
        ["maintenance", "comparison", "stress", "churn", "replication", "swarm"],
    )
    def test_experiment_seed_reaches_run(self, monkeypatch, name):
        def run(**kwargs):
            raise SystemExit(kwargs.get("seed"))

        module = importlib.import_module(f"repro.experiments.ext_{name}")
        monkeypatch.setattr(module, "run", run)
        with pytest.raises(SystemExit) as reached:
            main(["experiment", name, "--seed", "5", "--jobs", "1",
                  "--no-cache"])
        assert reached.value.code == 5

    def test_experiment_help_has_no_shard_flags(self, capsys):
        for command in ("experiment", "sweep"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            assert "--shards" not in capsys.readouterr().out

    def test_sweep_parallel_matches_serial(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_CACHE", str(tmp_path))
        argv = [
            "sweep", "--peers", "30", "--keys", "40", "--lookups", "40",
            "--grid", "0.0", "0.8",
        ]
        assert main(argv + ["--jobs", "1", "--no-cache"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert main(argv + ["--jobs", "1"]) == 0  # warm cache
        cached = capsys.readouterr().out
        assert serial == parallel == cached

    def test_deterministic_output(self, capsys):
        argv = ["demo", "--peers", "30", "--keys", "40", "--lookups", "40", "--seed", "9"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second
