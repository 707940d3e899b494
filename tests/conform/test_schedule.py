"""Tests for schedule recording and (de)serialization."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.conform import InteractionSchedule, ReferenceInterpreter, record_schedule
from repro.core import SimulationError
from repro.core.rng import ensure_generator
from repro.engine import engine_for_scheduler
from repro.protocols import build_protocol, uniform_k_partition
from repro.scheduling import SchedulerSpec, StickyScheduler


@pytest.fixture(scope="module")
def proto():
    return uniform_k_partition(3)


#: (protocol, params, n) -> {(seed, scheduler): SHA-256 of the recording}.
#: The recorder's output is what every stored schedule, reproducer and
#: driven session replays; it must not move.  Pinned since the recorder
#: draws ``PAIR_BLOCK`` pairs per refill, as the engines do.
PINNED_RECORDINGS = {
    ("uniform-k-partition", (("k", 3),), 30): {
        (0, None): "85b665e921f500a455c7c3215add217d86f32e06d9f1ec56fbab2daa78355a97",
        (5, "graph:cycle"): "f01005da41ebe1f79440caa037ddca88070c172beed189bbd6afda8375b3808b",
    },
    ("weak-k-partition", (("k", 3),), 12): {
        (5, None): "2db835b2392c425d60610b9256ed9be56c61253f1ec87c21ff19a5d09aecd639",
        (0, "graph:cycle"): "c8eb8c36a1c22ea84777fe253ea9c98a46fc9ef2660be5abc016642fddd91409",
    },
    ("graph-bipartition", (), 14): {
        (0, None): "7f6976f291873abaf422c252aeb74de552995efd934bf94ff5ce1e609a2569b8",
        (5, "graph:cycle"): "e0f45ec8b089bc79d6bc4e6201d870c976a24cdd4aa00bcca47cd152730d6cdc",
    },
}


class TestPinnedRecordings:
    @pytest.mark.parametrize(
        "case", sorted(PINNED_RECORDINGS), ids=lambda case: case[0]
    )
    def test_recordings_unchanged(self, case):
        name, params, n = case
        protocol = build_protocol(name, **dict(params))
        for (seed, scheduler), expected in PINNED_RECORDINGS[case].items():
            sched = None
            if scheduler is not None:
                sched = SchedulerSpec.parse(scheduler).build(n, ensure_generator(seed))
            rec = record_schedule(
                protocol, n, seed=seed, max_interactions=50_000, scheduler=sched
            )
            payload = json.dumps([
                rec.pairs, rec.effective_steps, rec.final_counts,
                rec.initial_counts, rec.converged,
            ])
            assert hashlib.sha256(payload.encode()).hexdigest() == expected, (
                seed, scheduler,
            )


class TestReferenceInterpreter:
    def test_steps_by_name_and_tracks_counts(self, proto):
        interp = ReferenceInterpreter.at(proto, proto.initial_counts(4))
        i = proto.space.index
        p2, q2 = proto.transitions.apply("initial", "initial")
        assert interp.step(0, 1) == (i("initial"), i("initial"), True)
        assert interp.states == [i(p2), i(q2), i("initial"), i("initial")]
        assert interp.counts == [
            interp.states.count(s) for s in range(proto.num_states)
        ]

    def test_null_step_changes_nothing(self, proto):
        counts = [0] * proto.num_states
        counts[proto.space.index("g1")] = 2
        interp = ReferenceInterpreter.at(proto, counts)
        before = (list(interp.states), list(interp.counts))
        g1 = proto.space.index("g1")
        assert interp.step(0, 1) == (g1, g1, False)
        assert (interp.states, interp.counts) == before


class TestRecording:
    def test_converges_and_matches_engine_semantics(self, proto):
        sched = record_schedule(proto, 20, seed=7)
        assert sched.converged
        assert sched.n == 20
        assert sched.protocol == proto.name
        assert sum(sched.final_counts) == 20
        # The reference interpreter must land on the Lemmas 4-6 signature.
        assert not proto.lemma1_residuals(sched.final_counts).any()
        assert proto.stable(sched.final_counts, 20)

    def test_effective_steps_index_into_pairs(self, proto):
        sched = record_schedule(proto, 12, seed=1)
        assert sched.interactions == len(sched.pairs)
        assert sched.effective_interactions == len(sched.effective_steps)
        assert all(0 <= s < len(sched.pairs) for s in sched.effective_steps)
        assert sched.effective_steps == sorted(set(sched.effective_steps))

    def test_deterministic_for_fixed_seed(self, proto):
        a = record_schedule(proto, 15, seed=3)
        b = record_schedule(proto, 15, seed=3)
        assert a.pairs == b.pairs
        assert a.final_counts == b.final_counts

    def test_budget_respected_without_convergence(self, proto):
        # n = 2 never stabilizes for k-partition: rules 1-2 flip both
        # agents in lockstep, so rule 5 can never fire.
        sched = record_schedule(proto, 2, seed=0, max_interactions=500)
        assert not sched.converged
        assert sched.interactions == 500

    def test_explicit_initial_counts(self, proto):
        counts0 = np.zeros(proto.num_states, dtype=np.int64)
        counts0[proto.space.index("initial")] = 9
        sched = record_schedule(proto, seed=5, initial_counts=counts0)
        assert sched.n == 9
        assert sched.converged

    def test_custom_scheduler(self, proto):
        rng = np.random.default_rng(2)
        sched = record_schedule(
            proto, 10, seed=2, scheduler=StickyScheduler(10, 0.7, rng)
        )
        assert sched.converged

    def test_rejects_missing_population(self, proto):
        with pytest.raises(SimulationError):
            record_schedule(proto, seed=0)

    def test_rejects_single_agent(self, proto):
        with pytest.raises(SimulationError):
            record_schedule(proto, 1, seed=0)

    def test_rejects_negative_budget(self, proto):
        with pytest.raises(SimulationError):
            record_schedule(proto, 8, seed=0, max_interactions=-1)

    def test_rejects_mismatched_initial_counts(self, proto):
        with pytest.raises(SimulationError):
            record_schedule(proto, seed=0, initial_counts=[3, 0])
        with pytest.raises(SimulationError):
            record_schedule(
                proto,
                5,
                seed=0,
                initial_counts=np.zeros(proto.num_states, dtype=np.int64),
            )

    def test_agrees_with_agent_engine_distribution(self):
        # The recorder draws as the engines draw, so the recording is
        # the agent engine's run at the same seed, step for step (for a
        # non-uniform scheduler, one built on that seed's generator).
        cases = [
            ("uniform-k-partition", {"k": 3}, 30, "uniform"),
            ("uniform-k-partition", {"k": 3}, 30, "roundrobin"),
            ("graph-bipartition", {}, 20, "graph:cycle"),
        ]
        for name, params, n, scheduler in cases:
            protocol = build_protocol(name, **params)
            for seed in (0, 1, 2, 11):
                sched = None
                if scheduler != "uniform":
                    spec = SchedulerSpec.parse(scheduler)
                    sched = spec.build(n, ensure_generator(seed))
                rec = record_schedule(protocol, n, seed=seed, scheduler=sched)
                run = engine_for_scheduler("agent", scheduler).run(
                    protocol, n, seed=seed
                )
                assert rec.converged and run.converged
                assert (rec.interactions, rec.effective_interactions) == (
                    run.interactions, run.effective_interactions
                ), (name, scheduler, seed)
                assert rec.final_counts == np.asarray(run.final_counts).tolist()


class TestSerialization:
    def test_round_trip(self, proto):
        sched = record_schedule(proto, 10, seed=4)
        rec = sched.to_record()
        back = InteractionSchedule.from_record(rec)
        assert back == sched

    def test_record_is_json_safe(self, proto):
        import json

        sched = record_schedule(proto, 8, seed=9)
        text = json.dumps(sched.to_record())
        back = InteractionSchedule.from_record(json.loads(text))
        assert back.pairs == sched.pairs
        assert back.final_counts == sched.final_counts

    def test_prefix_truncates(self, proto):
        sched = record_schedule(proto, 10, seed=6)
        cut = max(1, sched.interactions // 2)
        pre = sched.prefix(cut)
        assert pre.interactions == cut
        assert pre.pairs == sched.pairs[:cut]
        assert all(s < cut for s in pre.effective_steps)
        assert not pre.converged
        assert pre.meta["truncated_at"] == cut

    def test_prefix_clamps_out_of_range(self, proto):
        sched = record_schedule(proto, 8, seed=6)
        assert sched.prefix(10**9).interactions == sched.interactions
        assert sched.prefix(-5).interactions == 0
