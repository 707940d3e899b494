"""Tests for the lockstep differential executor."""

from __future__ import annotations

import pytest

from repro.conform import (
    DRIVEABLE_ENGINES,
    ENGINE_PATHS,
    invariant_pack,
    mutate_protocol,
    record_schedule,
    run_differential,
)
from repro.core import SimulationError
from repro.obs import read_trace
from repro.protocols import (
    leader_election,
    uniform_bipartition,
    uniform_k_partition,
)


@pytest.fixture(scope="module")
def proto():
    return uniform_k_partition(3)


class TestCleanReplay:
    def test_all_engine_paths_agree(self, proto):
        report = run_differential(proto, 40, seed=0)
        assert report.ok
        assert report.engines == list(ENGINE_PATHS)
        assert report.divergence is None
        assert report.invariant_violations == []
        assert report.effective_steps > 0
        assert "no divergence" in report.summary()

    @pytest.mark.parametrize("engine", DRIVEABLE_ENGINES)
    def test_each_path_alone(self, proto, engine):
        report = run_differential(proto, 25, seed=1, engines=[engine])
        assert report.ok
        assert report.engines == [engine]

    @pytest.mark.parametrize(
        "builder", [uniform_bipartition, leader_election]
    )
    def test_other_registry_protocols(self, builder):
        report = run_differential(builder(), 16, seed=2)
        assert report.ok

    def test_stride_replay_still_clean(self, proto):
        report = run_differential(proto, 30, seed=3, stride=16)
        assert report.ok

    def test_precomputed_schedule_reused(self, proto):
        sched = record_schedule(proto, 20, seed=4)
        report = run_differential(proto, schedule=sched)
        assert report.ok
        assert report.steps_replayed == sched.interactions
        assert report.effective_steps == sched.effective_interactions

    def test_no_invariants_mode(self, proto):
        report = run_differential(proto, 20, seed=5, check_invariants=False)
        assert report.ok


class TestDivergenceDetection:
    def test_mutated_tables_caught(self, proto):
        mutated = mutate_protocol(proto, ("initial", "initial'"))
        report = run_differential(
            mutated, 30, seed=0, reference_protocol=proto,
            check_invariants=False,
        )
        assert not report.ok
        d = report.divergence
        assert d is not None
        assert d.kind in ("effectiveness", "counts")
        assert d.engine in ENGINE_PATHS
        assert d.step >= 0
        assert "DIVERGENCE" in report.summary()

    def test_invariant_pack_flags_mutant_oracle(self, proto):
        # Oracle runs the *mutated* tables; Lemma 1 breaks on its own
        # trajectory even before cross-engine comparison matters.
        mutated = mutate_protocol(proto, ("initial", "initial'"))
        report = run_differential(
            mutated, 30, seed=0, invariants=invariant_pack(proto, 30)
        )
        assert not report.ok

    def test_reproducer_dump(self, proto, tmp_path):
        mutated = mutate_protocol(proto, ("initial", "initial'"))
        report = run_differential(
            mutated, 30, seed=0, reference_protocol=proto,
            check_invariants=False, reproducer_dir=tmp_path,
        )
        assert not report.ok
        assert report.reproducer_path is not None
        records = list(read_trace(report.reproducer_path))
        kinds = [r.get("type") for r in records]
        assert "conform_divergence" in kinds
        assert "conform_schedule" in kinds
        sched_rec = next(r for r in records if r["type"] == "conform_schedule")
        # The dumped prefix is cut at the divergent step.
        assert len(sched_rec["pairs"]) == report.divergence.step + 1

    def test_no_dump_without_directory(self, proto):
        mutated = mutate_protocol(proto, ("initial", "initial'"))
        report = run_differential(
            mutated, 30, seed=0, reference_protocol=proto,
            check_invariants=False,
        )
        assert not report.ok
        assert report.reproducer_path is None


class TestValidation:
    def test_unknown_engine_rejected(self, proto):
        with pytest.raises(SimulationError, match="unknown engine"):
            run_differential(proto, 10, seed=0, engines=["agent", "warp"])

    def test_bad_stride_rejected(self, proto):
        with pytest.raises(SimulationError, match="stride"):
            run_differential(proto, 10, seed=0, stride=0)

    def test_state_count_mismatch_rejected(self, proto):
        with pytest.raises(SimulationError, match="state"):
            run_differential(
                proto, 10, seed=0, reference_protocol=uniform_k_partition(4)
            )

    def test_foreign_schedule_rejected(self, proto):
        sched = record_schedule(uniform_k_partition(4), 10, seed=0)
        with pytest.raises(SimulationError, match="states"):
            run_differential(proto, schedule=sched)


class TestSchedulerGrid:
    """The (protocol, fairness, graph) grid reaches every engine path."""

    def test_graph_scheduler_recording_replays_clean(self):
        from repro.protocols import graph_bipartition

        report = run_differential(
            graph_bipartition(),
            20,
            seed=20,
            scheduler="graph:cycle",
            max_interactions=500_000,
        )
        assert report.ok
        assert report.engines == list(ENGINE_PATHS)
        assert report.effective_steps > 0

    def test_random_regular_clean(self):
        from repro.protocols import graph_bipartition

        report = run_differential(
            graph_bipartition(),
            16,
            seed=21,
            scheduler="graph:regular:4",
            max_interactions=500_000,
        )
        assert report.ok

    def test_roundrobin_recording_replays_clean(self):
        from repro.protocols import weak_k_partition

        report = run_differential(
            weak_k_partition(3), 30, seed=22, scheduler="roundrobin"
        )
        assert report.ok
        # Every effective interaction commits one agent: n - 1 of them.
        assert report.effective_steps == 29

    def test_scheduler_ignored_when_schedule_supplied(self, proto):
        sched = record_schedule(proto, 20, seed=23)
        report = run_differential(
            proto, schedule=sched, scheduler="graph:cycle"
        )
        assert report.ok
        assert report.steps_replayed == sched.interactions

    def test_live_scheduler_instance_accepted(self, proto):
        from repro.scheduling import StickyScheduler

        report = run_differential(
            proto,
            12,
            seed=24,
            scheduler=StickyScheduler(12, 0.5, seed=24),
        )
        assert report.ok
