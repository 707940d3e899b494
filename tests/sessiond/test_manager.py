"""Session-manager tests: lifecycle, budgets, checkpoints, attach."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.core import SimulationError
from repro.engine import engine_for_scheduler, reset_kernels
from repro.engine.session import SessionState
from repro.protocols import build_protocol
from repro.sessiond import SessionManager, config_digest

DATA = Path(__file__).parent / "data"


def science(record: dict) -> dict:
    """A result record minus wall-clock timing (the reproducible part)."""
    rec = dict(record)
    rec.pop("elapsed")
    return rec


class TestContract:
    def test_config_digest_is_order_insensitive(self):
        a = config_digest({"n": 24, "engine": "count"})
        b = config_digest({"engine": "count", "n": 24})
        assert a == b
        assert a != config_digest({"engine": "count", "n": 25})


class TestLifecycle:
    def test_create_checkpoints_interaction_zero(self, manager, free_config):
        info = manager.create(free_config, session_id="a")
        assert info["status"] == "running"
        assert info["interactions"] == 0
        assert info["snapshots"] == 1
        assert manager.store.get_snapshot("a", 0) is not None
        assert info["config_digest"] == config_digest(
            manager.store.require_session("a").config
        )

    def test_status_decodes_no_config(self, manager, driven_config, monkeypatch):
        from repro.sessiond.store import SessionRow

        manager.create(driven_config, session_id="a")
        manager.advance("a", 64)
        manager.fork("a", child_id="b")
        manager.fork("b", child_id="c")
        expected = manager.status("c")
        decoded = []
        from_row, loads = SessionRow._from_row, json.loads

        def counting_rows(row):
            decoded.append(row["id"])
            return from_row(row)

        def counting_loads(text, *args, **kwargs):
            if "schedule" in str(text):
                decoded.append(text)
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(SessionRow, "_from_row", staticmethod(counting_rows))
        monkeypatch.setattr(json, "loads", counting_loads)
        payload = manager.status("c")
        monkeypatch.undo()
        assert decoded == []
        assert payload == expected
        assert [hop["id"] for hop in payload["lineage"]] == ["a", "b", "c"]

    def test_config_digest_pinned(self, manager, free_config, driven_config):
        # Values written by the code that decoded and re-encoded the
        # config; hashing the stored text must give the same digests.
        manager.create(free_config, session_id="f")
        manager.create(driven_config, session_id="d")
        manager.advance("d", 64)
        manager.fork("d", child_id="c")
        free = "b7ee29a7dd0caaae4cbaa5e7dbb4e5a06d810a08d6195753ff990d9222dc2b6a"
        driven = "0ba364fca351a162713d756511c0805cf03e3c9f3b0c542a108cad3bfadee0f2"
        assert manager.status("f")["config_digest"] == free
        assert manager.status("d")["config_digest"] == driven
        assert manager.status("c")["config_digest"] == driven
        for sid in "fdc":
            stored = manager.store.require_session(sid).config
            assert manager.status(sid)["config_digest"] == config_digest(stored)

    def test_unknown_mode_rejected(self, manager, free_config):
        with pytest.raises(SimulationError, match="unknown session mode"):
            manager.create(dict(free_config, mode="psychic"))

    def test_driven_requires_schedule(self, manager, driven_config):
        driven_config.pop("schedule")
        with pytest.raises(SimulationError, match="recorded schedule"):
            manager.create(driven_config)

    def test_driven_rejects_free_only_engine(self, manager, driven_config):
        with pytest.raises(SimulationError, match="driven execution"):
            manager.create(dict(driven_config, engine="ensemble-parallel"))

    def test_delete_tombstones_and_drops_checkpoints(self, manager, free_config):
        manager.create(free_config, session_id="a")
        manager.delete("a")
        with pytest.raises(SimulationError, match="no session"):
            manager.status("a")
        assert manager.store.list_snapshots("a") == []


class TestAdvance:
    def test_driven_budget_is_exact(self, manager, driven_config, schedule):
        manager.create(driven_config, session_id="a")
        info = manager.advance("a", 100)
        assert info["interactions"] == 100
        assert info["advanced"] == 100
        assert info["status"] == "running"
        info = manager.advance("a")
        assert info["interactions"] == schedule.interactions
        assert info["status"] == "converged"
        assert info["effective"] == schedule.effective_interactions
        # Advancing a terminal session is a no-op, not an error.
        assert manager.advance("a")["advanced"] == 0

    def test_driven_result_matches_the_recording(
        self, manager, driven_config, schedule
    ):
        manager.create(driven_config, session_id="a")
        manager.advance("a")
        record = manager.result("a")
        assert record["final_counts"] == schedule.final_counts
        assert record["interactions"] == schedule.interactions
        assert record["effective_interactions"] == schedule.effective_interactions
        assert record["converged"] is True

    def test_checkpoints_land_on_the_cadence(self, manager, driven_config):
        driven_config["checkpoint_interval"] = 50
        manager.create(driven_config, session_id="a")
        manager.advance("a", 175)
        stored = [s.interactions for s in manager.store.list_snapshots("a")]
        assert stored == [0, 50, 100, 150]

    def test_free_advance_reaches_convergence(self, manager, free_config):
        manager.create(free_config, session_id="a")
        info = manager.advance("a")
        assert info["status"] == "converged"
        record = manager.result("a")
        assert record["converged"] is True
        assert sorted(record["group_sizes"]) == [8, 8, 8]

    def test_result_refuses_running_session(self, manager, free_config):
        manager.create(free_config, session_id="a")
        with pytest.raises(SimulationError, match="still running"):
            manager.result("a")

    def test_bad_budgets_rejected(self, manager, free_config):
        manager.create(free_config, session_id="a")
        with pytest.raises(SimulationError, match="budget must be positive"):
            manager.advance("a", 0)
        with pytest.raises(SimulationError, match="budget must be positive"):
            manager.pump(0)

    def test_pump_advances_every_running_session(self, manager, driven_config):
        manager.create(dict(driven_config), session_id="a")
        manager.create(dict(driven_config), session_id="b")
        outcome = manager.pump(300, slice_budget=50)
        assert outcome["advanced"] == 300
        assert outcome["sessions"]["a"] == 150
        assert outcome["sessions"]["b"] == 150
        # Draining the rest finishes both and stops on its own.
        outcome = manager.pump(10_000_000)
        assert manager.status("a")["status"] == "converged"
        assert manager.status("b")["status"] == "converged"


class TestAttach:
    def test_attach_resumes_from_latest_checkpoint(
        self, tmp_path, driven_config, schedule
    ):
        m1 = SessionManager(tmp_path / "s.db", checkpoint_interval=64)
        m1.create(driven_config, session_id="a")
        m1.advance("a", 100)
        m1.close()  # checkpoints the live cursor (100)

        m2 = SessionManager(tmp_path / "s.db", checkpoint_interval=64)
        info = m2.attach("a")
        assert info["interactions"] == 100
        m2.advance("a")
        record = m2.result("a")
        assert record["final_counts"] == schedule.final_counts
        m2.close()

    def test_free_session_survives_restart_bit_identically(
        self, tmp_path, free_config
    ):
        straight = SessionManager(tmp_path / "one.db", checkpoint_interval=64)
        straight.create(free_config, session_id="a")
        straight.advance("a")
        expected = science(straight.result("a"))
        straight.close()

        m1 = SessionManager(tmp_path / "two.db", checkpoint_interval=64)
        m1.create(free_config, session_id="a")
        m1.advance("a", 150)
        m1.close()
        m2 = SessionManager(tmp_path / "two.db", checkpoint_interval=64)
        m2.advance("a")  # implicit attach
        assert science(m2.result("a")) == expected
        m2.close()

    def test_counts_at_requires_driven(self, manager, free_config):
        manager.create(free_config, session_id="a")
        with pytest.raises(SimulationError, match="driven session"):
            manager.counts_at("a", 10)

    def test_counts_at_probes_any_point(self, manager, driven_config, schedule):
        manager.create(driven_config, session_id="a")
        manager.advance("a")
        assert manager.counts_at("a", 0) == schedule.initial_counts
        assert (
            manager.counts_at("a", schedule.interactions)
            == schedule.final_counts
        )
        # A probe never disturbs the live session.
        assert manager.status("a")["status"] == "converged"


class TestSnapshotEncoding:
    """Each checkpoint is encoded once, and its digest is still the
    :meth:`SessionState.digest` of the stored payload."""

    def test_digests_match_session_state_digest(self, manager, free_config):
        manager.create(free_config, session_id="a")
        manager.advance("a", 200)
        snaps = manager.store.list_snapshots("a")
        assert len(snaps) >= 3
        for snap in snaps:
            ckpt = manager.store.get_snapshot("a", snap.interactions)
            state = SessionState.from_bytes(ckpt.payload)
            assert snap.digest == ckpt.digest == state.digest()

    def test_checkpoint_encodes_state_once(self, manager, free_config, monkeypatch):
        manager.create(free_config, session_id="a")
        calls = []
        to_bytes = SessionState.to_bytes

        def counting(self):
            calls.append(1)
            return to_bytes(self)

        monkeypatch.setattr(SessionState, "to_bytes", counting)
        manager.snapshot("a")
        assert len(calls) == 1

    def test_fork_shares_parent_blob_without_reencoding(
        self, manager, free_config, monkeypatch
    ):
        manager.create(free_config, session_id="a")
        manager.advance("a", 200)
        at = manager.snapshots("a")[1]["interactions"]
        blobs = manager.store.stats()["blobs"]

        def refuse(self):
            raise AssertionError("fork re-encoded a stored checkpoint")

        monkeypatch.setattr(SessionState, "to_bytes", refuse)
        manager.fork("a", at=at, child_id="b")
        assert manager.store.stats()["blobs"] == blobs
        parent = {s["interactions"]: s["digest"] for s in manager.snapshots("a")}
        assert manager.snapshots("b")[0]["digest"] == parent[at]


class TestSchedulers:
    """Free sessions start by the path ``run_trials`` uses: the config's
    scheduler goes through ``engine_for_scheduler``."""

    @pytest.mark.parametrize(
        ("protocol", "params", "engine", "scheduler", "n"),
        [
            ("weak-k-partition", {"k": 3}, "agent", "roundrobin", 31),
            ("graph-bipartition", {}, "graph", "graph:cycle", 16),
        ],
    )
    def test_free_session_runs_its_scheduler(
        self, manager, protocol, params, engine, scheduler, n
    ):
        config = {
            "protocol": protocol, "params": params, "engine": engine,
            "scheduler": scheduler, "mode": "free", "n": n, "seed": 7,
            "max_interactions": 2_000_000,
        }
        manager.create(config, session_id="a")
        manager.advance("a")
        expected = engine_for_scheduler(engine, scheduler).run(
            build_protocol(protocol, **params), n, seed=7,
            max_interactions=2_000_000,
        )
        assert expected.converged
        assert science(manager.result("a")) == science(expected.to_record())

    def test_config_without_scheduler_runs_uniform(self, manager, free_config):
        # No scheduler key means uniform: ``agent`` then runs the
        # ``batch`` execution.
        for sid, engine in (("a", "agent"), ("b", "batch")):
            manager.create(dict(free_config, engine=engine), session_id=sid)
            manager.advance(sid)
        agent, batch = (science(manager.result(sid)) for sid in "ab")
        assert (agent.pop("engine"), batch.pop("engine")) == ("agent", "batch")
        assert agent == batch


#: A store written before ``agent``, ``batch`` and ``graph`` became one
#: engine class: one free session each (uniform-k-partition, k = 3,
#: n = 60, seed 3, tracking g3), checkpointed at 0 and 300
#: interactions, mid pair block.  The agent session's snapshots carry
#: ``scheduler_state``, the batch one's ``rng``, and the graph one's
#: ``rng`` and its scheduler name.  The JSON file holds the records
#: (``elapsed`` stripped) each session finished with when resumed by
#: the code that wrote the store.
PARENT_STORE = DATA / "parent-free-sessions.db"
PARENT_RECORDS = DATA / "parent-free-sessions.expected.json"


@pytest.mark.parametrize("backend", ["auto", "python"])
def test_parent_store_attaches_and_finishes_identically(
    tmp_path, monkeypatch, backend
):
    monkeypatch.setenv("REPRO_KERNEL", backend)
    reset_kernels()
    db = tmp_path / "sessions.db"
    shutil.copy(PARENT_STORE, db)
    expected = json.loads(PARENT_RECORDS.read_text())
    manager = SessionManager(db, checkpoint_interval=300)
    try:
        for sid in ("agent", "batch", "graph"):
            assert manager.attach(sid)["interactions"] == 300
            manager.advance(sid)
            assert science(manager.result(sid)) == expected[sid], sid
    finally:
        manager.close()
        monkeypatch.undo()
        reset_kernels()
