"""Tests for the adaptive hybrid engine."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.engine import BatchEngine, HybridEngine
from repro.protocols import leader_election, uniform_k_partition


@pytest.fixture(scope="module")
def proto():
    return uniform_k_partition(4)


class TestRun:
    def test_converges_and_partitions(self, proto):
        r = HybridEngine().run(proto, 40, seed=0)
        assert r.converged
        assert r.group_sizes.tolist() == [10, 10, 10, 10]
        assert r.engine == "hybrid"

    def test_reproducible(self, proto):
        a = HybridEngine().run(proto, 40, seed=1)
        b = HybridEngine().run(proto, 40, seed=1)
        assert a.interactions == b.interactions
        assert np.array_equal(a.final_counts, b.final_counts)

    def test_budget_respected(self, proto):
        r = HybridEngine().run(proto, 80, seed=2, max_interactions=100)
        assert not r.converged
        assert r.interactions <= 100

    def test_track_state_across_phases(self, proto):
        r = HybridEngine().run(proto, 48, seed=3, track_state="g4")
        assert len(r.tracked_milestones) == 12
        assert r.tracked_milestones == sorted(r.tracked_milestones)
        assert r.tracked_milestones[-1] <= r.interactions

    def test_on_effective_interaction_indices_global(self, proto):
        seen = []
        r = HybridEngine().run(
            proto, 40, seed=4, on_effective=lambda i, c: seen.append(i)
        )
        # Indices keep increasing across the phase switch.
        assert seen == sorted(seen)
        assert len(seen) == len(set(seen))
        assert seen[-1] <= r.interactions

    def test_threshold_one_switches_immediately(self, proto):
        # With threshold 1.0 the batch phase never runs (W < T always
        # once anything is null-able); results still correct.
        r = HybridEngine(switch_threshold=1.0).run(proto, 20, seed=5)
        assert r.converged
        assert r.group_sizes.tolist() == [5, 5, 5, 5]

    def test_threshold_zero_never_switches(self, proto):
        # Pure batch behaviour: identical to BatchEngine per seed.
        a = HybridEngine(switch_threshold=0.0).run(proto, 20, seed=6)
        b = BatchEngine().run(proto, 20, seed=6)
        assert a.interactions == b.interactions
        assert np.array_equal(a.final_counts, b.final_counts)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            HybridEngine(switch_threshold=1.5)
        with pytest.raises(ValueError):
            HybridEngine(check_every=0)

    def test_protocol_without_predicate(self):
        r = HybridEngine().run(leader_election(), 20, seed=7)
        assert r.converged
        assert r.silent


class TestLawEquivalence:
    def test_matches_batch_distribution(self, proto):
        trials = 100
        hybrid = np.array(
            [HybridEngine().run(proto, 16, seed=100 + i).interactions for i in range(trials)]
        )
        batch = np.array(
            [BatchEngine().run(proto, 16, seed=7000 + i).interactions for i in range(trials)]
        )
        assert stats.ks_2samp(hybrid, batch).pvalue > 0.005

    def test_final_partition_always_exact(self, proto):
        for seed in range(10):
            r = HybridEngine().run(proto, 41, seed=seed)
            assert r.converged
            sizes = r.group_sizes
            assert int(sizes.max() - sizes.min()) <= 1
