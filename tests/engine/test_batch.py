"""Tests for the batched uniform-scheduler engine.

Behavioural coverage largely mirrors the agent engine (the two are
exact twins, asserted in test_equivalence.py); these tests cover the
batch-specific surface.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SimulationError
from repro.engine import BatchEngine
from repro.protocols import uniform_k_partition


@pytest.fixture(scope="module")
def proto():
    return uniform_k_partition(4)


class TestRun:
    def test_converges_and_partitions(self, proto):
        r = BatchEngine().run(proto, 16, seed=0)
        assert r.converged
        assert r.group_sizes.tolist() == [4, 4, 4, 4]
        assert r.engine == "batch"

    def test_budget_exact(self, proto):
        r = BatchEngine().run(proto, 32, seed=1, max_interactions=7)
        assert r.interactions == 7
        assert not r.converged

    def test_budget_not_exceeded_mid_block(self, proto):
        # A budget far below the block size must still be honoured.
        r = BatchEngine().run(proto, 32, seed=2, max_interactions=3)
        assert r.interactions == 3

    def test_track_state(self, proto):
        r = BatchEngine().run(proto, 16, seed=3, track_state="g4")
        assert len(r.tracked_milestones) == 4

    def test_explicit_initial_counts(self, proto):
        counts = np.zeros(proto.num_states, dtype=np.int64)
        counts[proto.space.index("initial")] = 8
        r = BatchEngine().run(proto, initial_counts=counts, seed=4)
        assert r.converged
        assert r.n == 8

    def test_requires_population(self, proto):
        with pytest.raises(SimulationError):
            BatchEngine().run(proto, 0)

    def test_on_effective_interaction_indices_increase(self, proto):
        seen = []
        BatchEngine().run(proto, 12, seed=5, on_effective=lambda i, c: seen.append(i))
        assert seen == sorted(seen)
        assert len(seen) == len(set(seen))
