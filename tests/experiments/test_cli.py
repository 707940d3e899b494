"""Tests for the repro-experiments command-line interface."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.cli import EXPERIMENTS, build_parser, main, run_experiment


class TestParser:
    def test_experiment_choices(self):
        parser = build_parser()
        args = parser.parse_args(["fig3", "--quick"])
        assert args.experiment == "fig3"
        assert args.quick

    def test_all_choice(self):
        args = build_parser().parse_args(["all"])
        assert args.experiment == "all"

    def test_invalid_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["no-such-figure"])

    def test_every_registered_experiment_has_quick_params(self):
        for name, (_, _, quick, description) in EXPERIMENTS.items():
            assert isinstance(quick, dict), name
            assert description


class TestRunExperiment:
    def test_quick_state_table(self, tmp_path):
        table = run_experiment(
            "state-table", quick=True, out=str(tmp_path), progress_enabled=False
        )
        assert len(table) > 0
        assert (tmp_path / "state_table.csv").exists()
        assert (tmp_path / "state_table.json").exists()
        assert (tmp_path / "state_table.txt").exists()

    def test_trials_override(self):
        table = run_experiment(
            "fig6", quick=True, trials=2, progress_enabled=False
        )
        assert all(row["trials"] == 2 for row in table.rows)

    def test_json_output_loads(self, tmp_path):
        run_experiment(
            "fig6", quick=True, trials=2, out=str(tmp_path), progress_enabled=False
        )
        payload = json.loads((tmp_path / "fig6_scaling_k.json").read_text())
        assert payload["name"] == "fig6_scaling_k"
        assert payload["rows"]

    def test_seed_changes_results(self):
        a = run_experiment("fig6", quick=True, trials=2, seed=1, progress_enabled=False)
        b = run_experiment("fig6", quick=True, trials=2, seed=2, progress_enabled=False)
        assert a.rows != b.rows

    def test_seed_reproducible(self):
        a = run_experiment("fig6", quick=True, trials=2, seed=3, progress_enabled=False)
        b = run_experiment("fig6", quick=True, trials=2, seed=3, progress_enabled=False)
        assert a.rows == b.rows


class TestMain:
    def test_main_runs_one_experiment(self, capsys, tmp_path):
        rc = main(
            ["state-table", "--quick", "--no-progress", "--out", str(tmp_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "state-table" in out
        assert "State complexity" in out

    def test_main_quick_fig6(self, capsys):
        rc = main(["fig6", "--quick", "--trials", "2", "--no-progress"])
        assert rc == 0
        assert "Figure 6" in capsys.readouterr().out

    def test_main_trace_and_metrics(self, capsys, tmp_path):
        from repro.obs import get_telemetry, read_trace
        from repro.obs.trace import active_trace_writer

        trace = tmp_path / "trace.jsonl"
        rc = main([
            "fig6", "--quick", "--trials", "2", "--no-progress",
            "--trace", str(trace), "--metrics",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "engine." in out
        records = read_trace(trace)
        assert records[0]["type"] == "header"
        assert any(r["type"] == "trial" for r in records)
        # The process-wide hooks are restored after the run.
        assert get_telemetry().enabled is False
        assert active_trace_writer() is None

    def test_trace_and_metrics_env_defaults(self, monkeypatch, tmp_path):
        from repro.experiments.cli import build_parser

        monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "t.jsonl"))
        monkeypatch.setenv("REPRO_METRICS", "1")
        args = build_parser().parse_args(["fig6"])
        assert args.trace == str(tmp_path / "t.jsonl")
        assert args.metrics is True


class TestDescribe:
    def test_describe_prints_protocol(self, capsys):
        rc = main(["describe", "--protocol", "uniform-k-partition", "--param", "k=3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "uniform-3-partition" in out
        assert "(initial, initial') -> (g1, m2)" in out

    def test_describe_with_ratio_param(self, capsys):
        rc = main([
            "describe", "--protocol", "r-generalized-partition",
            "--param", "ratio=1,2",
        ])
        assert rc == 0
        assert "r-generalized-partition-1:2" in capsys.readouterr().out

    def test_describe_requires_protocol(self):
        with pytest.raises(SystemExit):
            main(["describe"])

    def test_bad_param_rejected(self):
        with pytest.raises(SystemExit):
            main(["describe", "--protocol", "leader-election", "--param", "oops"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["describe", "--protocol", "r-generalized-partition"],
            ["conform", "diff", "--protocol", "r-generalized-partition"],
            ["session", "create", "--store", "unused.db",
             "--protocol", "r-generalized-partition"],
        ],
        ids=["describe", "conform", "session"],
    )
    def test_non_integer_list_param_is_a_usage_error(self, argv, tmp_path, monkeypatch):
        # All three CLIs share one --param parser; a list item that is
        # not an integer exits with the usage message, not a traceback.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--param", "ratio=1,x"])
        assert str(exc.value) == "--param expects KEY=VALUE, got 'ratio=1,x'"
        assert not (tmp_path / "unused.db").exists()

    def test_describe_function(self):
        from repro.experiments.cli import describe_protocol

        out = describe_protocol("leader-election", [])
        assert "(L, L) -> (L, F)" in out
