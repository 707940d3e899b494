"""Tests for the ensemble engine (vectorized jump chain over replicates)."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.core import SimulationError
from repro.core.rng import spawn_seed_sequences
from repro.engine import CountBasedEngine, EnsembleEngine, run_trials
from repro.protocols import (
    approximate_k_partition,
    leader_election,
    uniform_k_partition,
)
from repro.protocols.registry import build_protocol


@pytest.fixture(scope="module")
def proto():
    return uniform_k_partition(3)


class TestRunBatch:
    def test_all_converge_to_uniform_partition(self, proto):
        seeds = spawn_seed_sequences(0, 20)
        results = EnsembleEngine().run_batch(proto, 30, seeds=seeds)
        assert len(results) == 20
        for r in results:
            assert r.converged
            assert sorted(r.group_sizes.tolist()) == [10, 10, 10]
            assert r.engine == "ensemble"
            assert r.n == 30

    def test_deterministic_for_fixed_seeds(self, proto):
        seeds = spawn_seed_sequences(7, 15)
        a = EnsembleEngine().run_batch(proto, 21, seeds=seeds, track_state="g3")
        b = EnsembleEngine().run_batch(proto, 21, seeds=seeds, track_state="g3")
        for ra, rb in zip(a, b):
            assert ra.interactions == rb.interactions
            assert ra.effective_interactions == rb.effective_interactions
            assert ra.tracked_milestones == rb.tracked_milestones
            assert np.array_equal(ra.final_counts, rb.final_counts)

    def test_empty_seed_list_rejected(self, proto):
        with pytest.raises(SimulationError):
            EnsembleEngine().run_batch(proto, 10, seeds=[])

    def test_budget_respected_per_replicate(self, proto):
        seeds = spawn_seed_sequences(1, 12)
        results = EnsembleEngine().run_batch(
            proto, 60, seeds=seeds, max_interactions=80
        )
        for r in results:
            assert r.interactions <= 80
            if not r.converged:
                assert r.interactions == 80

    def test_milestones_complete_and_ordered(self, proto):
        seeds = spawn_seed_sequences(2, 10)
        results = EnsembleEngine().run_batch(proto, 18, seeds=seeds, track_state="g3")
        for r in results:
            # g3 must climb to floor(18/3) = 6, one milestone per level.
            assert len(r.tracked_milestones) == 6
            assert r.tracked_milestones == sorted(r.tracked_milestones)
            assert all(m >= 1 for m in r.tracked_milestones)
            assert r.tracked_milestones[-1] <= r.interactions

    def test_stable_nonsilent_configuration(self, proto):
        # n mod k == 1 leaves a flipping free agent: stable, not silent.
        seeds = spawn_seed_sequences(3, 8)
        results = EnsembleEngine().run_batch(proto, 13, seeds=seeds)
        for r in results:
            assert r.converged
            assert not r.silent

    def test_silence_fallback_without_predicate(self):
        from repro.core import Protocol

        le = leader_election()
        bare = Protocol("le-bare", le.space, le.transitions, le.initial_state)
        seeds = spawn_seed_sequences(4, 10)
        results = EnsembleEngine().run_batch(bare, 12, seeds=seeds)
        for r in results:
            assert r.converged
            assert r.silent
            assert r.final_counts[le.space.index("L")] == 1

    def test_many_classes_uses_incremental_weights(self):
        # k = 8 has 70 interaction classes, above the full-refresh cap,
        # so this exercises the bitmask incremental-update path.
        p8 = uniform_k_partition(8)
        seeds = spawn_seed_sequences(5, 10)
        results = EnsembleEngine().run_batch(p8, 64, seeds=seeds)
        for r in results:
            assert r.converged
            assert sorted(r.group_sizes.tolist()) == [8] * 8

    def test_pure_vectorized_mode(self, proto):
        # finish_threshold=0 disables the scalar finisher entirely.
        seeds = spawn_seed_sequences(6, 10)
        results = EnsembleEngine(finish_threshold=0).run_batch(
            proto, 24, seeds=seeds, track_state="g3"
        )
        for r in results:
            assert r.converged
            assert len(r.tracked_milestones) == 8

    def test_negative_finish_threshold_rejected(self):
        with pytest.raises(ValueError):
            EnsembleEngine(finish_threshold=-1)


class TestRun:
    def test_single_run_contract(self, proto):
        r = EnsembleEngine().run(proto, 15, seed=11, track_state="g3")
        assert r.converged
        assert len(r.tracked_milestones) == 5
        a = EnsembleEngine().run(proto, 15, seed=11, track_state="g3")
        assert a.interactions == r.interactions

    def test_on_effective_callback(self, proto):
        totals = []

        def watch(interactions, counts):
            totals.append(int(sum(counts)))

        EnsembleEngine().run(proto, 12, seed=5, on_effective=watch)
        assert set(totals) == {12}  # population conserved at every step

    def test_on_effective_rejected_for_batches(self, proto):
        # Callbacks are only meaningful at batch size 1; run_batch never
        # passes one, but start_batch exposes the parameter.
        with pytest.raises(SimulationError):
            EnsembleEngine().start_batch(
                proto,
                9,
                seeds=list(np.random.SeedSequence(0).spawn(2)),
                on_effective=lambda i, c: None,
            )

    def test_already_stable(self, proto):
        counts = np.zeros(proto.num_states, dtype=np.int64)
        for g in ("g1", "g2", "g3"):
            counts[proto.space.index(g)] = 1
        r = EnsembleEngine().run(proto, initial_counts=counts, seed=6)
        assert r.converged
        assert r.interactions == 0


class TestDistributionalEquivalence:
    """The ensemble chain must have the same law as the scalar jump
    chain — checked with two-sample KS tests on independent seeds."""

    @pytest.mark.parametrize("threshold", [None, 0])
    def test_matches_count_engine(self, proto, threshold):
        n, trials = 12, 200
        ens = EnsembleEngine(finish_threshold=threshold).run_batch(
            proto, n, seeds=spawn_seed_sequences(100, trials)
        )
        cnt = [
            CountBasedEngine().run(proto, n, seed=s)
            for s in spawn_seed_sequences(200, trials)
        ]
        a = np.array([r.interactions for r in ens])
        b = np.array([r.interactions for r in cnt])
        assert stats.ks_2samp(a, b).pvalue > 0.005
        ae = np.array([r.effective_interactions for r in ens])
        be = np.array([r.effective_interactions for r in cnt])
        assert stats.ks_2samp(ae, be).pvalue > 0.005


class TestBatchStabilityPredicate:
    def test_matches_scalar_predicate_row_by_row(self):
        for k, n in [(3, 12), (3, 13), (4, 17), (5, 23)]:
            p = uniform_k_partition(k)
            scalar = p.stability_predicate(n)
            batched = p.batch_stability_predicate(n)
            rng = np.random.default_rng(k * 100 + n)
            # Mix of random count vectors and genuinely stable ones.
            rows = []
            for _ in range(40):
                row = rng.multinomial(n, np.ones(p.num_states) / p.num_states)
                rows.append(row.astype(np.int64))
            stable_run = CountBasedEngine().run(p, n, seed=1)
            rows.append(stable_run.final_counts)
            matrix = np.stack(rows)
            got = batched(matrix)
            want = np.array([scalar(list(r)) for r in matrix])
            assert np.array_equal(got, want)
            assert got[-1]  # the converged configuration is stable

    @pytest.mark.parametrize(
        "name, params, n",
        [
            ("uniform-k-partition", {"k": 3}, 12),
            ("uniform-k-partition", {"k": 3}, 13),
            ("uniform-k-partition", {"k": 4}, 17),
            ("uniform-k-partition", {"k": 5}, 23),
            ("uniform-bipartition", {}, 11),
            ("graph-bipartition", {}, 11),
            ("weak-k-partition", {"k": 3}, 10),
            ("leader-election", {}, 7),
            ("r-generalized-partition", {"ratio": (1, 2)}, 14),
        ],
    )
    def test_signature_matches_scalar_predicate(self, name, params, n):
        p = build_protocol(name, **params)
        assert p.stability_signature(n) is not None
        scalar = p.stability_predicate(n)
        batched = p.batch_stability_predicate(n)
        rng = np.random.default_rng(p.num_states * 100 + n)
        # Mix of random count vectors and genuinely stable ones.
        rows = []
        for _ in range(40):
            row = rng.multinomial(n, np.ones(p.num_states) / p.num_states)
            rows.append(row.astype(np.int64))
        stable_run = CountBasedEngine().run(p, n, seed=1)
        rows.append(stable_run.final_counts)
        matrix = np.stack(rows)
        got = batched(matrix)
        want = np.array([scalar(list(r)) for r in matrix])
        assert np.array_equal(got, want)
        assert got[-1]  # the converged configuration is stable

    def test_rowwise_fallback_for_scalar_only_protocols(self):
        from repro.core import Protocol

        ap = approximate_k_partition(3)
        assert ap.stability_signature(12) is None
        batched = ap.batch_stability_predicate(12)
        scalar = ap.stability_predicate(12)
        rng = np.random.default_rng(5)
        m = rng.multinomial(12, np.ones(ap.num_states) / ap.num_states, size=30)
        m = np.vstack([m, CountBasedEngine().run(ap, 12, seed=1).final_counts])
        want = [scalar(list(r)) for r in m]
        assert want[-1]
        assert batched(m).tolist() == want
        bare = Protocol("ap-bare", ap.space, ap.transitions, ap.initial_state)
        assert bare.batch_stability_predicate(12) is None


class TestRunnerIntegration:
    def test_run_trials_uses_batch_path(self, proto):
        ts = run_trials(proto, 24, trials=12, engine="ensemble", seed=5)
        assert ts.engine == "ensemble"
        assert ts.all_converged
        ts2 = run_trials(proto, 24, trials=12, engine="ensemble", seed=5)
        assert np.array_equal(ts.interactions, ts2.interactions)

    def test_run_trials_instance_and_name_agree(self, proto):
        by_name = run_trials(proto, 15, trials=6, engine="ensemble", seed=9)
        by_inst = run_trials(proto, 15, trials=6, engine=EnsembleEngine(), seed=9)
        assert np.array_equal(by_name.interactions, by_inst.interactions)
