"""Bisection tests: exact first-divergence index, reproducer, probes.

The acceptance case plants a corrupted transition rule with
``conform.mutation.mutate_protocol`` and requires the bisector to name
the exact first interaction where the mutated trajectory departs from
the clean one — verified against an exhaustive linear replay of both
name-level interpreters, which is the ground truth the bisector must
match, also when the two trajectories heal back into one configuration.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.conform.mutation import mutate_protocol
from repro.core import SimulationError
from repro.obs import Telemetry, use_telemetry
from repro.sessiond import SessionManager, bisect_divergence


def linear_first_divergence(clean, mutated, schedule):
    """Ground truth by exhaustive replay of both transition tables."""

    def setup(proto):
        states = []
        for idx, c in enumerate(schedule.initial_counts):
            states.extend([idx] * c)
        return proto.space, proto.transitions, states, list(
            schedule.initial_counts
        )

    worlds = [setup(clean), setup(mutated)]
    for i, (a, b) in enumerate(schedule.pairs):
        for space, table, states, counts in worlds:
            p, q = space.names[states[a]], space.names[states[b]]
            p2, q2 = table.apply(p, q)
            if (p2, q2) != (p, q):
                counts[space.index(p)] -= 1
                counts[space.index(q)] -= 1
                counts[space.index(p2)] += 1
                counts[space.index(q2)] += 1
                states[a] = space.index(p2)
                states[b] = space.index(q2)
        if worlds[0][3] != worlds[1][3]:
            return i
    return None


# Rule 1 is the seeded bug for this schedule: its corruption fires
# early (rule 0 fires at the very first interaction, covered below).
# Both trajectories end in the same configuration on this schedule, so
# only a replay that compares step outcomes can find either split.
SEEDED_RULE = 1


@pytest.fixture()
def pair_of_sessions(manager, driven_config):
    manager.create(dict(driven_config), session_id="clean")
    manager.create(
        dict(driven_config, mutate_rule=SEEDED_RULE), session_id="mutated"
    )
    return manager


class TestBisect:
    def test_locates_the_exact_divergent_interaction(
        self, pair_of_sessions, proto, schedule, tmp_path
    ):
        manager = pair_of_sessions
        expected = linear_first_divergence(
            proto, mutate_protocol(proto, SEEDED_RULE), schedule
        )
        assert expected is not None  # the planted bug must matter here
        report = bisect_divergence(
            manager, "clean", "mutated", reproducer_dir=tmp_path
        )
        assert report.diverged
        assert report.first_divergence == expected
        assert report.pair == schedule.pairs[expected]
        assert report.counts_a != report.counts_b
        assert sum(report.counts_a) == sum(report.counts_b) == schedule.n

    def test_probe_count_is_logarithmic(self, pair_of_sessions, schedule):
        report = bisect_divergence(pair_of_sessions, "clean", "mutated")
        # One checkpoint restore per session, then a single lockstep
        # replay: no probe sequence at all.
        assert report.probes == 2

    def test_probes_are_counted_in_telemetry(self, pair_of_sessions):
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            report = bisect_divergence(pair_of_sessions, "clean", "mutated")
        counters = telemetry.snapshot()["counters"]
        assert counters["sessiond.bisect.probes"] == report.probes

    def test_reproducer_is_a_replayable_prefix(
        self, pair_of_sessions, schedule, tmp_path
    ):
        report = bisect_divergence(
            pair_of_sessions, "clean", "mutated", reproducer_dir=tmp_path
        )
        lines = [
            json.loads(line)
            for line in open(report.reproducer_path, encoding="utf-8")
        ]
        kinds = [rec.get("type") for rec in lines]
        assert "conform_divergence" in kinds
        assert "conform_schedule" in kinds
        sched_rec = lines[kinds.index("conform_schedule")]
        assert len(sched_rec["pairs"]) == report.first_divergence + 1
        assert sched_rec["pairs"][-1] == list(report.pair)
        div_rec = lines[kinds.index("conform_divergence")]
        assert div_rec["step"] == report.first_divergence

    def test_identical_sessions_report_no_divergence(
        self, manager, driven_config
    ):
        manager.create(dict(driven_config), session_id="a")
        manager.create(dict(driven_config), session_id="b")
        report = bisect_divergence(manager, "a", "b")
        assert not report.diverged
        assert report.first_divergence is None
        assert report.reproducer_path is None

    def test_healed_divergence_is_honestly_reported_as_none(
        self, manager, driven_config, proto, schedule
    ):
        # Rule 0 fires on this schedule but the two trajectories
        # reconcile before the end: equal final configurations.  The
        # bisector compares step outcomes, not configurations at probe
        # points, so it still reports the first split.
        expected = linear_first_divergence(
            proto, mutate_protocol(proto, 0), schedule
        )
        assert expected is not None  # it genuinely fires mid-run...
        manager.create(dict(driven_config), session_id="clean")
        manager.create(
            dict(driven_config, mutate_rule=0), session_id="healed"
        )
        manager.advance("clean")
        manager.advance("healed")
        clean, healed = manager.result("clean"), manager.result("healed")
        assert clean["final_counts"] == healed["final_counts"]  # ...and heals.
        report = bisect_divergence(manager, "clean", "healed")
        assert report.first_divergence == expected
        assert report.counts_a != report.counts_b

    def test_checkpoint_density_never_changes_the_answer(
        self, manager, driven_config
    ):
        # Dense checkpoints on one side, only interaction 0 on the other.
        manager.create(dict(driven_config), session_id="clean")
        manager.create(
            dict(driven_config, mutate_rule=SEEDED_RULE), session_id="mutated"
        )
        sparse = bisect_divergence(manager, "clean", "mutated")
        manager.advance("clean")
        manager.advance("mutated")
        dense = bisect_divergence(manager, "clean", "mutated")
        assert dense.first_divergence == sparse.first_divergence

    def test_trails_do_not_depend_on_checkpoint_placement(
        self, manager, driven_config, schedule
    ):
        manager.create(dict(driven_config), session_id="a")
        manager.create(
            dict(driven_config, checkpoint_interval=96), session_id="b"
        )
        manager.advance("a")
        manager.advance("b", 100)
        manager.advance("b")
        trails_a = manager.store.checkpoint_trails("a")
        trails_b = manager.store.checkpoint_trails("b")
        shared = set(trails_a) & set(trails_b)
        assert {0, 192, schedule.interactions} <= shared
        assert all(trails_a[t] == trails_b[t] for t in shared)
        # Equal trails at the end: nothing to replay, nothing restored.
        report = bisect_divergence(manager, "a", "b")
        assert not report.diverged
        assert report.probes == 0

    def test_replay_starts_at_the_last_agreeing_checkpoint(
        self, manager, driven_config, proto, schedule, monkeypatch
    ):
        expected = linear_first_divergence(
            proto, mutate_protocol(proto, 5), schedule
        )
        assert expected is not None and expected > 64
        manager.create(dict(driven_config), session_id="clean")
        manager.create(dict(driven_config, mutate_rule=5), session_id="late")
        manager.advance("clean")
        manager.advance("late")
        starts = []
        probe = SessionManager.probe

        def spy(self, session_id, t):
            starts.append(t)
            return probe(self, session_id, t)

        monkeypatch.setattr(SessionManager, "probe", spy)
        report = bisect_divergence(manager, "clean", "late")
        assert report.first_divergence == expected
        assert starts == [expected // 64 * 64] * 2


class TestValidation:
    def test_rejects_free_sessions(self, manager, free_config, driven_config):
        manager.create(free_config, session_id="free")
        manager.create(driven_config, session_id="driven")
        with pytest.raises(SimulationError, match="driven sessions"):
            bisect_divergence(manager, "free", "driven")

    def test_rejects_different_schedules(
        self, manager, driven_config, proto
    ):
        from repro.conform import record_schedule

        other = record_schedule(proto, 24, seed=99)
        manager.create(dict(driven_config), session_id="a")
        manager.create(
            dict(driven_config, schedule=other.to_record()), session_id="b"
        )
        with pytest.raises(SimulationError, match="different"):
            bisect_divergence(manager, "a", "b")


#: A store written before checkpoints carried outcome trails: driven
#: sessions ``clean`` (count) and ``mutated`` (batch, ``mutate_rule=1``)
#: replaying ``record_schedule(uniform_k_partition(3), 24, seed=11)`` as
#: that code recorded it, checkpointed every 64 interactions and closed
#: at 150.  The JSON file holds the records (``elapsed`` stripped) each
#: session finished with when resumed by the code that wrote the store.
DATA = Path(__file__).parent / "data"
PARENT_STORE = DATA / "parent-driven-sessions.db"
PARENT_RECORDS = DATA / "parent-driven-sessions.expected.json"


def test_parent_store_attaches_finishes_and_bisects(tmp_path, proto):
    from repro.conform import InteractionSchedule

    db = tmp_path / "sessions.db"
    shutil.copy(PARENT_STORE, db)
    expected = json.loads(PARENT_RECORDS.read_text())
    manager = SessionManager(db, checkpoint_interval=64)
    try:
        schedule = InteractionSchedule.from_record(
            manager.store.require_session("clean").config["schedule"]
        )
        linear = linear_first_divergence(
            proto, mutate_protocol(proto, SEEDED_RULE), schedule
        )
        assert linear is not None
        assert manager.store.checkpoint_trails("clean") == {}
        assert bisect_divergence(manager, "clean", "mutated").first_divergence == linear
        for sid in ("clean", "mutated"):
            assert manager.attach(sid)["interactions"] == 150
            manager.advance(sid)
            result = manager.result(sid)
            result.pop("elapsed")
            assert result == expected[sid], sid
        report = bisect_divergence(manager, "clean", "mutated")
        assert report.first_divergence == linear
    finally:
        manager.close()


class TestProbeReuse:
    """A probe on a live session reuses that session's protocol object
    and parsed schedule; a probe on a stored session rebuilds both from
    its row.  The two paths must give the same answers."""

    def test_live_and_stored_probes_agree(self, pair_of_sessions):
        from repro.sessiond import SessionManager

        manager = pair_of_sessions
        manager.advance("clean", 100)
        live = bisect_divergence(manager, "clean", "mutated")
        stored_manager = SessionManager(manager.store.path, checkpoint_interval=64)
        try:
            stored = bisect_divergence(stored_manager, "clean", "mutated")
            assert not stored_manager.status("clean")["live"]
        finally:
            stored_manager.close()
        assert live.diverged
        assert live.to_record() == stored.to_record()

    def test_live_probe_rebuilds_nothing(self, pair_of_sessions, monkeypatch):
        from repro.sessiond import manager as manager_module

        expected = pair_of_sessions.counts_at("mutated", 50)

        def refuse(*args, **kwargs):
            raise AssertionError("a probe on a live session rebuilt it")

        monkeypatch.setattr(manager_module, "build_protocol", refuse)
        monkeypatch.setattr(manager_module.SessionManager, "_build", refuse)
        assert pair_of_sessions.counts_at("mutated", 50) == expected
