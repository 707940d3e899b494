"""CLI tests: every verb through ``session_main``, JSON on stdout.

Each invocation builds its own manager over the shared store file, so
this suite also exercises the attach-from-store path between commands —
exactly what a human debugging session at a shell looks like.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.cli import main as experiments_main
from repro.sessiond.cli import session_main


def run(capsys, *argv: str) -> dict | list:
    assert session_main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


@pytest.fixture()
def db(tmp_path):
    return str(tmp_path / "sessions.db")


DRIVEN = (
    "--mode", "driven", "--n", "24", "--seed", "11",
    "--checkpoint-interval", "64",
)


class TestVerbs:
    def test_create_advance_result_free(self, capsys, db):
        out = run(
            capsys, "create", "--store", db, "--id", "a",
            "--mode", "free", "--n", "24", "--seed", "5",
            "--checkpoint-interval", "64",
        )
        assert out["status"] == "running"
        out = run(capsys, "advance", "--store", db, "a")
        assert out["status"] == "converged"
        out = run(capsys, "result", "--store", db, "a")
        assert out["converged"] is True
        assert sum(out["final_counts"]) == 24

    def test_create_with_scheduler_matches_run_trials_engine(self, capsys, db):
        # Expected: the engine run_trials resolves for (agent,
        # roundrobin), run on the same seed.
        from repro.engine import engine_for_scheduler
        from repro.protocols import build_protocol

        run(
            capsys, "create", "--store", db, "--id", "rr",
            "--protocol", "weak-k-partition", "--param", "k=3",
            "--engine", "agent", "--scheduler", "roundrobin", "--mode", "free",
            "--n", "31", "--seed", "7", "--max-interactions", "2000000",
        )
        assert run(capsys, "advance", "--store", db, "rr")["status"] == "converged"
        got = run(capsys, "result", "--store", db, "rr")
        expected = engine_for_scheduler("agent", "roundrobin").run(
            build_protocol("weak-k-partition", k=3), 31, seed=7,
            max_interactions=2_000_000,
        ).to_record()
        got.pop("elapsed")
        expected.pop("elapsed")
        assert got == json.loads(json.dumps(expected))

    def test_scheduler_rejected_for_driven_sessions(self, db):
        with pytest.raises(SystemExit, match="free sessions"):
            session_main(
                ["create", "--store", db, "--scheduler", "roundrobin", *DRIVEN]
            )

    def test_fork_and_rewind_roundtrip(self, capsys, db):
        run(capsys, "create", "--store", db, "--id", "a", *DRIVEN)
        run(capsys, "advance", "--store", db, "a", "--budget", "128")
        out = run(
            capsys, "fork", "--store", db, "a", "--at", "64",
            "--child-id", "b",
        )
        assert out["id"] == "b" and out["interactions"] == 64
        run(capsys, "advance", "--store", db, "a")
        run(capsys, "advance", "--store", db, "b")
        ra = run(capsys, "result", "--store", db, "a")
        rb = run(capsys, "result", "--store", db, "b")
        assert ra == rb
        out = run(capsys, "rewind", "--store", db, "a", "--at", "64")
        assert out["status"] == "running" and out["interactions"] == 64
        run(capsys, "advance", "--store", db, "a")
        assert run(capsys, "result", "--store", db, "a") == ra

    def test_snapshot_and_ls(self, capsys, db):
        run(capsys, "create", "--store", db, "--id", "a", *DRIVEN)
        run(capsys, "advance", "--store", db, "a", "--budget", "100")
        out = run(capsys, "snapshot", "--store", db, "a")
        assert out["interactions"] == 100
        out = run(capsys, "ls", "--store", db)
        assert [s["id"] for s in out["sessions"]] == ["a"]
        out = run(capsys, "ls", "--store", db, "a")
        assert [s["interactions"] for s in out["snapshots"]] == [0, 64, 100]

    def test_bisect_locates_seeded_mutation(self, capsys, db, tmp_path):
        run(capsys, "create", "--store", db, "--id", "clean", *DRIVEN)
        run(
            capsys, "create", "--store", db, "--id", "mutated",
            "--mutate-rule", "1", *DRIVEN,
        )
        out = run(
            capsys, "bisect", "--store", db, "clean", "mutated",
            "--reproducer-dir", str(tmp_path),
        )
        assert isinstance(out["first_divergence"], int)
        reproducer = [
            json.loads(line)
            for line in open(out["reproducer_path"], encoding="utf-8")
        ]
        assert any(r.get("type") == "conform_schedule" for r in reproducer)

    def test_gc_shrinks_the_store(self, capsys, db):
        run(capsys, "create", "--store", db, "--id", "a", *DRIVEN)
        run(capsys, "advance", "--store", db, "a")
        out = run(capsys, "gc", "--store", db)
        assert out["snapshots_removed"] > 0
        assert out["bytes_freed"] >= 0

    def test_dispatch_through_experiments_cli(self, capsys, db):
        assert (
            experiments_main(
                [
                    "session", "create", "--store", db, "--id", "a",
                    "--mode", "free", "--n", "24", "--seed", "5",
                ]
            )
            == 0
        )
        assert json.loads(capsys.readouterr().out)["id"] == "a"
