"""Session-manager tests: lifecycle, budgets, checkpoints, attach."""

from __future__ import annotations

import pytest

from repro.core import SimulationError
from repro.sessiond import SessionManager, config_digest


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
