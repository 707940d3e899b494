"""Tests for the campaign CLI verbs and the incremental experiment CLI."""

from __future__ import annotations

import json

import pytest

from repro.campaign import CampaignStore, experiment_specs
from repro.campaign.cli import campaign_main
from repro.experiments.cli import main as experiments_main

GRID = ["--experiment", "fig6", "--quick", "--trials", "1"]


def grid_size() -> int:
    return len(experiment_specs("fig6", quick=True, trials=1))


class TestCampaignVerbs:
    def test_submit_then_status(self, tmp_path, capsys):
        db = str(tmp_path / "campaign.db")
        assert campaign_main(["submit", "--db", db, *GRID]) == 0
        out = capsys.readouterr().out
        assert f"submitted {grid_size()} new job(s)" in out

        assert campaign_main(["status", "--db", db]) == 0
        counts = json.loads(
            capsys.readouterr().out.split("trial cache")[0]
        )
        assert counts["pending"] == grid_size()

    def test_run_twice_is_all_cache_hits(self, tmp_path, capsys):
        db = str(tmp_path / "campaign.db")
        assert campaign_main(["run", "--db", db, "--no-progress", *GRID]) == 0
        first = capsys.readouterr().out
        assert f"{grid_size()} new, 0 cached (0% cache hits)" in first
        assert f"executed={grid_size()}" in first

        assert campaign_main(["run", "--db", db, "--no-progress", *GRID]) == 0
        second = capsys.readouterr().out
        assert f"0 new, {grid_size()} cached (100% cache hits)" in second
        assert "executed=0" in second

    def test_run_no_submit_drains_queue_only(self, tmp_path, capsys):
        db = str(tmp_path / "campaign.db")
        campaign_main(["submit", "--db", db, *GRID])
        capsys.readouterr()
        assert campaign_main(["run", "--db", db, "--no-submit",
                              "--no-progress"]) == 0
        out = capsys.readouterr().out
        assert "grid" not in out  # no submission line
        assert f"executed={grid_size()}" in out

    def test_run_reports_failures_with_exit_code(self, tmp_path, capsys):
        db = str(tmp_path / "campaign.db")
        store = CampaignStore(db)
        from repro.campaign import JobSpec

        store.submit(JobSpec(
            protocol="uniform-k-partition", params={"k": 3, "bogus": 1},
            n=9, trials=1,
        ))
        store.close()
        rc = campaign_main(["run", "--db", db, "--no-submit", "--no-progress",
                            "--retries", "0"])
        assert rc == 1
        assert "failed=1" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "verb", [["submit"], ["run", "--no-progress"]], ids=["submit", "run"]
    )
    def test_unknown_engine_exits_2_and_stores_nothing(self, tmp_path, capsys, verb):
        db = str(tmp_path / "campaign.db")
        rc = campaign_main([*verb, "--db", db, *GRID, "--engine", "nope"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown engine 'nope'" in err and "count" in err
        store = CampaignStore(db)
        assert store.counts()["pending"] == 0
        store.close()

    def test_gc_reports_removals(self, tmp_path, capsys):
        db = str(tmp_path / "campaign.db")
        campaign_main(["run", "--db", db, "--no-progress", *GRID])
        capsys.readouterr()
        assert campaign_main(["gc", "--db", db, "--older-than", "0"]) == 0
        out = capsys.readouterr().out
        assert f"{grid_size()} done" in out

    def test_run_with_trace_and_metrics(self, tmp_path, capsys):
        from repro.obs import read_trace

        db = str(tmp_path / "campaign.db")
        trace = tmp_path / "trace.jsonl"
        rc = campaign_main([
            "run", "--db", db, "--no-progress", *GRID,
            "--trace", str(trace), "--metrics",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        records = read_trace(trace)
        assert records[0]["type"] == "header"
        assert sum(r["type"] == "trial_set" for r in records) == grid_size()

    def test_dispatch_through_experiments_entry_point(self, tmp_path, capsys):
        db = str(tmp_path / "campaign.db")
        rc = experiments_main(["campaign", "submit", "--db", db, *GRID])
        assert rc == 0
        assert "submitted" in capsys.readouterr().out


class TestIncrementalExperiments:
    ARGS = ["fig6", "--quick", "--trials", "1", "--no-progress"]

    def test_explicit_cache_makes_second_run_free(self, tmp_path, capsys):
        db = str(tmp_path / "campaign.db")
        assert experiments_main([*self.ARGS, "--cache", db]) == 0
        first = capsys.readouterr().out
        assert f"{grid_size()} point(s) simulated" in first

        assert experiments_main([*self.ARGS, "--cache", db]) == 0
        second = capsys.readouterr().out
        assert f"{grid_size()}/{grid_size()} hits (100%)" in second
        assert "0 point(s) simulated" in second

    def test_out_dir_implies_cache(self, tmp_path, capsys):
        out = tmp_path / "results"
        assert experiments_main([*self.ARGS, "--out", str(out)]) == 0
        assert (out / "campaign.db").exists()
        assert "[point cache]" in capsys.readouterr().out

    def test_no_cache_disables_the_implied_cache(self, tmp_path, capsys):
        out = tmp_path / "results"
        rc = experiments_main([*self.ARGS, "--out", str(out), "--no-cache"])
        assert rc == 0
        assert not (out / "campaign.db").exists()
        assert "[point cache]" not in capsys.readouterr().out

    def test_campaign_run_warms_experiment_cache(self, tmp_path, capsys):
        db = str(tmp_path / "campaign.db")
        assert campaign_main(["run", "--db", db, "--no-progress", *GRID]) == 0
        capsys.readouterr()
        assert experiments_main([*self.ARGS, "--cache", db]) == 0
        out = capsys.readouterr().out
        assert f"{grid_size()}/{grid_size()} hits (100%)" in out


class TestServeAndLoadParsers:
    """Parser coverage for the serve flags and the load verb."""

    def _parse(self, argv):
        from repro.campaign.cli import build_campaign_parser

        return build_campaign_parser().parse_args(argv)

    def test_serve_defaults_to_v2(self):
        args = self._parse(["serve"])
        assert args.workers == 2
        assert args.queue_limit == 256

    def test_serve_v1_flag(self, capsys):
        # The legacy daemon and its knobs are gone: each is a usage
        # error (--workers 0 replaces --no-worker).
        for flags in (["--v1"], ["--no-worker"], ["--executor", "process"]):
            with pytest.raises(SystemExit) as exc:
                self._parse(["serve", *flags])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_v2_flags(self):
        args = self._parse(["serve", "--workers", "4", "--queue-limit", "8"])
        assert args.workers == 4
        assert args.queue_limit == 8

    def test_load_requires_url(self, capsys):
        with pytest.raises(SystemExit):
            self._parse(["load"])
        capsys.readouterr()

    def test_load_defaults(self):
        args = self._parse(["load", "--url", "http://h:1"])
        assert args.mode == "closed"
        assert args.clients == 100
        assert args.rate == 200.0
        assert args.tenant == "loadgen"
        assert args.json is False


class TestLoadVerb:
    def test_load_against_live_v2_service(self, tmp_path, capsys):
        from repro.campaign import AsyncCampaignService

        svc = AsyncCampaignService(
            tmp_path / "c.db", workers=1, poll_interval=0.02
        ).start()
        try:
            rc = campaign_main([
                "load", "--db", str(tmp_path / "unused.db"),
                "--url", svc.url, "--mode", "closed", "--clients", "8",
                "--duration", "1.0", "--submissions", "4", "--json",
            ])
        finally:
            svc.stop()
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "closed-loop"
        assert report["requests"] > 0
        assert report["server_errors_5xx"] == 0
        assert report["by_code"].get("200", 0) > 0
        assert "p50" in report["latency_seconds"]


class TestServeVerb:
    def test_serve_prints_banner_and_stops_on_ctrl_c(self, tmp_path):
        """``campaign serve`` blocks in serve_forever until SIGINT."""
        import os
        import re
        import signal
        import subprocess
        import sys
        import urllib.request
        from pathlib import Path

        import repro

        env = dict(
            os.environ,
            PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
            PYTHONUNBUFFERED="1",
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.cli", "campaign",
             "serve", "--db", str(tmp_path / "c.db"), "--port", "0",
             "--workers", "1"],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"http://[\d.]+:\d+", banner)
            assert match, banner
            assert "(db " in banner and "1 worker(s), queue_limit=256" in banner
            with urllib.request.urlopen(match.group(0) + "/healthz", timeout=10) as r:
                assert json.loads(r.read())["v"] == 2
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
