"""Tests for the agent-based engine."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import SimulationError
from repro.engine import (
    BatchEngine,
    SessionState,
    build_engine,
    engine_for_scheduler,
    reset_kernels,
)
from repro.protocols import uniform_k_partition


@pytest.fixture(scope="module")
def proto():
    return uniform_k_partition(3)


class TestRun:
    def test_converges_and_partitions(self, proto):
        r = build_engine("agent").run(proto, 12, seed=0)
        assert r.converged
        assert r.group_sizes.tolist() == [4, 4, 4]
        assert r.engine == "agent"
        assert r.n == 12
        assert r.interactions >= r.effective_interactions > 0

    def test_reproducible(self, proto):
        a = build_engine("agent").run(proto, 15, seed=1)
        b = build_engine("agent").run(proto, 15, seed=1)
        assert a.interactions == b.interactions
        assert np.array_equal(a.final_counts, b.final_counts)

    def test_budget_respected(self, proto):
        r = build_engine("agent").run(proto, 30, seed=2, max_interactions=5)
        assert not r.converged
        assert r.interactions == 5

    def test_budget_larger_than_need(self, proto):
        r = build_engine("agent").run(proto, 9, seed=3, max_interactions=10**9)
        assert r.converged
        assert r.interactions < 10**9

    def test_population_conservation(self, proto):
        r = build_engine("agent").run(proto, 17, seed=4)
        assert int(r.final_counts.sum()) == 17

    def test_track_state_milestones(self, proto):
        r = build_engine("agent").run(proto, 12, seed=5, track_state="g3")
        assert len(r.tracked_milestones) == 4  # floor(12/3)
        assert r.tracked_milestones == sorted(r.tracked_milestones)
        assert r.tracked_milestones[-1] <= r.interactions

    def test_track_state_by_index(self, proto):
        idx = proto.space.index("g3")
        r = build_engine("agent").run(proto, 9, seed=6, track_state=idx)
        assert len(r.tracked_milestones) == 3

    def test_track_state_bad_index(self, proto):
        with pytest.raises(SimulationError, match="out of range"):
            build_engine("agent").run(proto, 9, seed=7, track_state=99)

    def test_on_effective_callback(self, proto):
        seen = []
        build_engine("agent").run(
            proto, 9, seed=8, on_effective=lambda i, c: seen.append(i)
        )
        assert seen == sorted(seen)
        assert len(seen) > 0

    def test_explicit_initial_counts(self, proto):
        counts = np.zeros(proto.num_states, dtype=np.int64)
        counts[proto.space.index("g1")] = 1
        counts[proto.space.index("g2")] = 1
        counts[proto.space.index("g3")] = 1
        counts[proto.space.index("initial")] = 3
        r = build_engine("agent").run(proto, initial_counts=counts, seed=9)
        assert r.converged
        assert r.group_sizes.tolist() == [2, 2, 2]

    def test_initial_counts_validation(self, proto):
        with pytest.raises(SimulationError, match="shape"):
            build_engine("agent").run(proto, initial_counts=[1, 2])
        bad = np.zeros(proto.num_states, dtype=np.int64)
        bad[0] = -1
        with pytest.raises(SimulationError, match="non-negative"):
            build_engine("agent").run(proto, initial_counts=bad)
        ok = proto.initial_counts(5)
        with pytest.raises(SimulationError, match="n = 4"):
            build_engine("agent").run(proto, 4, initial_counts=ok)

    def test_initial_states_and_counts_mutually_exclusive(self, proto):
        with pytest.raises(SimulationError, match="not both"):
            build_engine("agent").run(
                proto,
                initial_counts=proto.initial_counts(3),
                initial_states=["initial"] * 3,
            )

    def test_requires_two_agents(self, proto):
        with pytest.raises(SimulationError, match="at least two"):
            build_engine("agent").run(proto, 1)
        with pytest.raises(SimulationError, match="either n or"):
            build_engine("agent").run(proto)

    def test_already_stable_initial(self, proto):
        counts = np.zeros(proto.num_states, dtype=np.int64)
        for g in ("g1", "g2", "g3"):
            counts[proto.space.index(g)] = 2
        r = build_engine("agent").run(proto, initial_counts=counts, seed=10)
        assert r.converged
        assert r.interactions == 0
        assert r.silent

    def test_stable_but_not_silent_detected(self, proto):
        # n mod k == 1: the leftover free agent flips forever; the
        # engine must stop at the signature, not wait for silence.
        r = build_engine("agent").run(proto, 10, seed=11)
        assert r.converged
        assert not r.silent
        assert r.group_sizes.tolist() == [4, 3, 3]

    def test_elapsed_recorded(self, proto):
        r = build_engine("agent").run(proto, 9, seed=13)
        assert r.elapsed >= 0.0


class TestSnapshotUnderSchedulers:
    """Satellite regression: snapshots capture scheduler *state*, not the
    scheduler object.  The old ``copy.deepcopy(self._scheduler)`` capture
    serialized the whole networkx graph (or pair table) per snapshot and
    re-created a detached scheduler on restore."""

    def test_snapshot_extra_has_state_not_a_scheduler_object(self):
        from repro.protocols import graph_bipartition
        from repro.scheduling import GraphScheduler

        engine = BatchEngine(
            lambda n, rng: GraphScheduler.cycle(n, rng), name="agent"
        )
        session = engine.start(graph_bipartition(), 10, seed=0)
        session.advance(100)
        extra = session.snapshot().extra
        assert "scheduler" not in extra
        # GraphScheduler's mutable state is its generator only; the
        # O(edges) topology stays shared with the live scheduler.
        assert set(extra["scheduler_state"]) == {"rng"}

    @pytest.mark.parametrize("topology", ["cycle", "regular"])
    def test_sliced_restore_bit_identical_under_graph_scheduler(
        self, topology
    ):
        from repro.engine import SessionState
        from repro.protocols import graph_bipartition
        from repro.scheduling import GraphScheduler

        def factory(n, rng, t=topology):
            if t == "cycle":
                return GraphScheduler.cycle(n, rng)
            return GraphScheduler.random_regular(4, n, rng)

        engine = BatchEngine(factory, name="agent")
        proto = graph_bipartition()
        whole = engine.run(proto, 14, seed=21, max_interactions=2_000_000)

        session = engine.start(proto, 14, seed=21, max_interactions=2_000_000)
        for cut in (3, 50, 4096, 10_000):
            if session.advance(cut).terminal:
                break
            blob = session.snapshot().to_bytes()
            session = engine.start(
                proto, 14, seed=77, max_interactions=2_000_000
            )
            session.restore(SessionState.from_bytes(blob))
        while not session.advance(50_000).terminal:
            pass
        r = session.result()
        assert r.interactions == whole.interactions
        assert r.effective_interactions == whole.effective_interactions
        assert np.array_equal(r.final_counts, whole.final_counts)

    def test_sliced_restore_bit_identical_under_round_robin(self):
        from repro.protocols import weak_k_partition
        from repro.scheduling import RoundRobinScheduler

        engine = BatchEngine(
            lambda n, rng: RoundRobinScheduler(n), name="agent"
        )
        proto = weak_k_partition(3)
        whole = engine.run(proto, 31, seed=0, max_interactions=100_000)
        assert whole.converged

        session = engine.start(proto, 31, seed=0, max_interactions=100_000)
        status = session.advance(17)
        assert not status.terminal
        blob = session.snapshot().to_bytes()
        resumed = engine.start(proto, 31, seed=5, max_interactions=100_000)
        from repro.engine import SessionState

        resumed.restore(SessionState.from_bytes(blob))
        while not resumed.advance(1_000).terminal:
            pass
        r = resumed.result()
        # The sweep position ("pos") travels in the snapshot, so the
        # resumed run replays the identical deterministic schedule.
        assert r.interactions == whole.interactions
        assert np.array_equal(r.final_counts, whole.final_counts)


#: An ``agent`` snapshot written while the agent engine still ran its
#: own pair loop: k = 3, n = 40, round-robin scheduler, seed 11,
#: ``max_interactions=20_000``, tracking g3, taken after ``advance(700)``
#: — mid-block, so ``scheduler_state`` carries the sweep position and
#: the payload a pair-block tail.
PINNED_AGENT_STATE = (
    Path(__file__).parent / "data" / "agent-roundrobin-k3-n40-seed11-at700.state"
)
#: SHA-256 of the straight run's record (``elapsed`` stripped).
PINNED_AGENT_RECORD = "49645f9d2f3dc5f65e952f1b4ad8c93d2a79a3a633f329d9cbe5eabaf40c988c"


@pytest.mark.parametrize("backend", ["auto", "python"])
def test_pinned_round_robin_snapshot_resumes_to_the_straight_run(
    monkeypatch, backend
):
    monkeypatch.setenv("REPRO_KERNEL", backend)
    reset_kernels()
    try:
        session = engine_for_scheduler("agent", "roundrobin").start(
            uniform_k_partition(3), 40, seed=0, max_interactions=20_000,
            track_state="g3",
        )
        state = SessionState.from_bytes(PINNED_AGENT_STATE.read_bytes())
        assert state.extra["scheduler_state"]["pos"] == 976
        session.restore(state)
        assert session.interactions == 700
        session.advance()
        record = session.result().to_record()
    finally:
        monkeypatch.undo()
        reset_kernels()
    del record["elapsed"]
    payload = json.dumps(record, sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == PINNED_AGENT_RECORD
