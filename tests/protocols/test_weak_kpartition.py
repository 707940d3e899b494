"""Tests for the weak-fairness (base-station) uniform k-partition."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ProtocolError
from repro.engine import AgentBasedEngine, BatchEngine, CountBasedEngine
from repro.protocols import uniform_k_partition, weak_k_partition
from repro.protocols.weak_kpartition import FREE
from repro.scheduling import RoundRobinScheduler


class TestStructure:
    def test_state_count_is_2k_plus_1(self):
        for k in (2, 3, 5, 8):
            assert weak_k_partition(k).num_states == 2 * k + 1

    def test_name_and_metadata(self):
        p = weak_k_partition(3)
        assert p.name == "weak-3-partition"
        assert p.metadata["fairness"] == "weak"
        assert p.metadata["k"] == 3

    def test_k_validation(self):
        with pytest.raises(ProtocolError, match="at least 2"):
            weak_k_partition(1)

    def test_group_map(self):
        p = weak_k_partition(4)
        space = p.space
        for i in range(1, 5):
            assert space.group_of(space.index(f"bs_{i}")) == i
            assert space.group_of(space.index(f"g_{i}")) == i

    def test_one_rule_per_coordinator_state(self):
        # (bs_i, free) -> (bs_{i mod k + 1}, g_i) is the whole table.
        p = weak_k_partition(3)
        rules = [t for t in p.transitions if not t.is_identity]
        seen = {(t.p, t.q) for t in rules}
        assert {("bs_1", FREE), ("bs_2", FREE), ("bs_3", FREE)} <= seen

    def test_initial_counts_factory(self):
        p = weak_k_partition(3)
        counts = p.initial_counts(10)
        assert counts[p.bs_indices[0]] == 1
        assert counts[p.free_index] == 9
        assert counts.sum() == 10

    def test_initial_counts_needs_two_agents(self):
        with pytest.raises(ProtocolError, match="n >= 2"):
            weak_k_partition(3).initial_counts(1)


class TestClosedForms:
    @pytest.mark.parametrize(
        ("k", "n", "expected"),
        [
            (2, 7, [4, 3]),
            (3, 9, [3, 3, 3]),
            (3, 10, [4, 3, 3]),
            (3, 11, [4, 4, 3]),
            (5, 23, [5, 5, 5, 4, 4]),
        ],
    )
    def test_expected_group_sizes(self, k, n, expected):
        assert weak_k_partition(k).expected_group_sizes(n).tolist() == expected

    def test_assignment_residuals_zero_on_reachable_configs(self):
        p = weak_k_partition(3)
        engine = AgentBasedEngine()

        def check(interactions, counts):
            assert p.coordinator_count(counts) == 1
            assert not p.assignment_residuals(counts).any()

        engine.run(p, 13, seed=0, on_effective=check)

    def test_assignment_residuals_catch_imbalance(self):
        p = weak_k_partition(3)
        # bs_2 active but g-counts not a prefix staircase.
        counts = np.zeros(p.num_states, dtype=np.int64)
        counts[p.bs_indices[1]] = 1
        counts[p.g_indices[0]] = 0
        counts[p.g_indices[1]] = 2
        assert p.assignment_residuals(counts).any()


class TestConvergence:
    @pytest.mark.parametrize("engine_cls", [AgentBasedEngine, BatchEngine, CountBasedEngine])
    def test_exact_uniform_partition(self, engine_cls):
        p = weak_k_partition(3)
        r = engine_cls().run(p, 100, seed=1)
        assert r.converged
        assert sorted(r.group_sizes.tolist(), reverse=True) == [34, 33, 33]

    def test_stabilizes_in_exactly_n_minus_1_effective_steps(self):
        # Every effective interaction commits one free agent; there is
        # no wasted work to converge, under any schedule.
        p = weak_k_partition(4)
        r = CountBasedEngine().run(p, 37, seed=2)
        assert r.effective_interactions == 36

    def test_terminal_configuration_is_silent(self):
        p = weak_k_partition(3)
        r = BatchEngine().run(p, 12, seed=3)
        assert p.stability_predicate(12)(r.final_counts)
        assert r.final_counts[p.free_index] == 0

    def test_converges_under_round_robin(self):
        """The discriminating scenario: weak fairness suffices.

        The source paper's protocol livelocks under the deterministic
        round-robin sweep (pinned in tests/scheduling); the
        base-station construction must converge there — that is the
        entire point of the variant.
        """
        p = weak_k_partition(3)
        engine = AgentBasedEngine(
            scheduler_factory=lambda n, rng: RoundRobinScheduler(n)
        )
        r = engine.run(p, 47, seed=4, max_interactions=1_000_000)
        assert r.converged
        assert sorted(r.group_sizes.tolist(), reverse=True) == [16, 16, 15]

    def test_round_robin_contrast_with_global_fairness_protocol(self):
        # Same scheduler, same budget: the globally-fair protocol
        # makes no progress where the weak one finishes.
        engine = AgentBasedEngine(
            scheduler_factory=lambda n, rng: RoundRobinScheduler(n)
        )
        strong = engine.run(
            uniform_k_partition(2), 2, seed=5, max_interactions=5_000
        )
        assert not strong.converged

    def test_registry_round_trip(self):
        from repro.protocols import build_protocol

        p = build_protocol("weak-k-partition", k=4)
        assert p.name == "weak-4-partition"
