"""Tests for the biased / adversarial schedulers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SchedulerError
from repro.engine import AgentBasedEngine
from repro.protocols import uniform_k_partition
from repro.scheduling import RoundRobinScheduler, StickyScheduler, WeightedScheduler


class TestWeighted:
    def test_validation(self):
        with pytest.raises(SchedulerError):
            WeightedScheduler([1.0])
        with pytest.raises(SchedulerError):
            WeightedScheduler([1.0, 0.0])
        with pytest.raises(SchedulerError):
            WeightedScheduler([1.0, float("inf")])

    def test_pairs_distinct(self):
        sched = WeightedScheduler([1, 1, 1, 10], seed=0)
        a, b = sched.next_block(2_000)
        assert (a != b).all()

    def test_bias_visible(self):
        # Agent 3 is 10x more popular; it should appear far more often.
        sched = WeightedScheduler([1, 1, 1, 10], seed=1)
        a, b = sched.next_block(6_000)
        appearances = np.bincount(np.concatenate([a, b]), minlength=4)
        assert appearances[3] > 2 * appearances[:3].max()

    def test_every_pair_still_possible(self):
        sched = WeightedScheduler([1, 1, 1, 100], seed=2)
        a, b = sched.next_block(20_000)
        seen = {frozenset(p) for p in zip(a.tolist(), b.tolist())}
        assert len(seen) == 6  # all C(4,2) pairs occur

    def test_protocol_correct_under_heavy_skew(self):
        """Correctness only needs global fairness, not uniformity."""
        proto = uniform_k_partition(3)
        weights = [1.0] * 11 + [50.0]
        engine = AgentBasedEngine(
            scheduler_factory=lambda n, rng: WeightedScheduler(weights, rng)
        )
        result = engine.run(proto, 12, seed=3, max_interactions=5_000_000)
        assert result.converged
        assert result.group_sizes.tolist() == [4, 4, 4]


class TestSticky:
    def test_validation(self):
        with pytest.raises(SchedulerError):
            StickyScheduler(5, stickiness=1.0)
        with pytest.raises(SchedulerError):
            StickyScheduler(5, stickiness=-0.1)

    def test_repeats_previous_pair(self):
        sched = StickyScheduler(20, stickiness=0.9, seed=4)
        a, b = sched.next_block(2_000)
        repeats = sum(
            1
            for i in range(1, 2_000)
            if a[i] == a[i - 1] and b[i] == b[i - 1]
        )
        assert repeats > 1_500  # ~90% sticky

    def test_zero_stickiness_behaves_uniform(self):
        sched = StickyScheduler(6, stickiness=0.0, seed=5)
        a, b = sched.next_block(3_000)
        assert (a != b).all()

    def test_protocol_correct_under_burstiness(self):
        proto = uniform_k_partition(3)
        engine = AgentBasedEngine(
            scheduler_factory=lambda n, rng: StickyScheduler(n, 0.8, rng)
        )
        result = engine.run(proto, 9, seed=6, max_interactions=5_000_000)
        assert result.converged
        assert result.group_sizes.tolist() == [3, 3, 3]


class TestRoundRobin:
    def test_deterministic_sweep(self):
        sched = RoundRobinScheduler(3)
        a, b = sched.next_block(6)
        pairs = list(zip(a.tolist(), b.tolist()))
        assert pairs == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]

    def test_wraps_around(self):
        sched = RoundRobinScheduler(3)
        sched.next_block(5)
        a, b = sched.next_block(2)
        assert (int(a[0]), int(b[0])) == (2, 1)
        assert (int(a[1]), int(b[1])) == (0, 1)

    def test_weak_fairness_covers_all_pairs(self):
        sched = RoundRobinScheduler(4)
        a, b = sched.next_block(12)
        assert len(set(zip(a.tolist(), b.tolist()))) == 12

    def test_kpartition_livelocks_under_round_robin(self):
        """The global-fairness assumption has teeth.

        Under the deterministic sweep (only weakly fair), an all-initial
        population of even size flips in lockstep: the sweep pairs
        agents so that rule 5 never fires from the configurations the
        cycle visits, so the protocol never makes progress.  This is
        exactly the Figure 1 (a)->(c) loop made deterministic.
        """
        proto = uniform_k_partition(2)
        engine = AgentBasedEngine(
            scheduler_factory=lambda n, rng: RoundRobinScheduler(n)
        )
        result = engine.run(proto, 2, seed=7, max_interactions=10_000)
        # n = 2: the single pair flips initial <-> initial' forever.
        assert not result.converged
        assert result.effective_interactions == 10_000

    def test_pair_table_matches_list_enumeration(self):
        # Regression pin for the ndarray rewrite: next_block used to
        # rebuild a Python pair list; the precomputed table must keep
        # the exact same enumeration order (initiator-major, responders
        # ascending with the initiator skipped) or every round-robin
        # result in the repo changes.
        for n in (2, 3, 5, 8):
            expected = [(a, b) for a in range(n) for b in range(n) if a != b]
            table = RoundRobinScheduler(n).pair_table
            assert table.dtype == np.int64
            assert [tuple(row) for row in table.tolist()] == expected

    def test_blocks_bit_identical_across_any_slicing(self):
        # The sweep position is the only state; any block slicing must
        # produce the same flat pair stream.
        whole = np.column_stack(RoundRobinScheduler(5).next_block(100))
        sliced = RoundRobinScheduler(5)
        parts = [np.column_stack(sliced.next_block(s)) for s in (7, 13, 80)]
        assert np.array_equal(whole, np.concatenate(parts))

    def test_capture_restore_includes_position(self):
        sched = RoundRobinScheduler(4)
        sched.next_block(5)
        state = sched.capture_state()
        first = np.column_stack(sched.next_block(9))
        sched.restore_state(state)
        assert np.array_equal(first, np.column_stack(sched.next_block(9)))

    def test_returned_blocks_do_not_alias_the_table(self):
        sched = RoundRobinScheduler(3)
        a, b = sched.next_block(4)
        a[0] = 99
        b[0] = 99
        assert sched.pair_table[0].tolist() == [0, 1]
