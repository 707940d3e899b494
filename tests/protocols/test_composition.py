"""Tests for parallel protocol composition."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.core import Configuration, ProtocolError
from repro.engine import BatchEngine, CountBasedEngine, build_engine
from repro.protocols import (
    leader_election,
    parallel_compose,
    uniform_bipartition,
    uniform_k_partition,
)


class TestStructure:
    def test_product_state_space(self):
        c = parallel_compose(leader_election(), uniform_bipartition())
        assert c.num_states == 2 * 4
        assert "L|initial" in c.states
        assert c.initial_state == "L|initial"

    def test_groups_from_second(self):
        c = parallel_compose(leader_election(), uniform_bipartition(), groups_from=2)
        assert c.num_groups == 2
        assert c.space.group_of("L|g2") == 2

    def test_groups_from_first_without_map_yields_none(self):
        c = parallel_compose(leader_election(), uniform_bipartition(), groups_from=1)
        # leader election has no group map.
        assert c.num_groups == 0

    def test_groups_from_zero(self):
        c = parallel_compose(uniform_bipartition(), uniform_bipartition(), groups_from=0)
        assert c.num_groups == 0

    def test_invalid_groups_from(self):
        with pytest.raises(ProtocolError):
            parallel_compose(leader_election(), uniform_bipartition(), groups_from=3)

    def test_component_rules_compose(self):
        c = parallel_compose(leader_election(), uniform_bipartition())
        # Both components fire in one interaction.
        out = c.transitions.apply("L|initial", "L|initial")
        assert out == ("L|initial'", "F|initial'")
        # Only the second component fires.
        out = c.transitions.apply("F|initial", "F|initial")
        assert out == ("F|initial'", "F|initial'")
        # Null in both components stays null.
        out = c.transitions.apply("F|g1", "F|g2")
        assert out == ("F|g1", "F|g2")

    def test_composition_of_asym_and_sym_is_oriented(self):
        c = parallel_compose(leader_election(), uniform_bipartition())
        assert c.transitions.is_oriented

    def test_symmetric_composition_stays_unoriented(self):
        c = parallel_compose(uniform_bipartition(), uniform_bipartition())
        assert not c.transitions.is_oriented
        assert c.is_symmetric

    def test_project_counts(self):
        c = parallel_compose(leader_election(), uniform_bipartition())
        config = Configuration.from_states(
            c, ["L|g1", "F|g2", "F|initial"]
        )
        m1, m2 = c.project_counts(config.counts)
        assert m1.tolist() == [1, 2]  # L, F
        assert int(m2.sum()) == 3


class TestSimulation:
    def test_both_components_stabilize(self):
        c = parallel_compose(leader_election(), uniform_bipartition(), groups_from=2)
        r = CountBasedEngine().run(c, 14, seed=0)
        assert r.converged
        le, bip = c.components
        m1, m2 = c.project_counts(r.final_counts)
        assert m1[le.space.index("L")] == 1          # one leader
        assert r.group_sizes.tolist() == [7, 7]      # even split

    def test_all_engines_agree_on_the_composition(self):
        c = parallel_compose(leader_election(), uniform_bipartition(), groups_from=2)
        a = build_engine("agent").run(c, 10, seed=3)
        b = BatchEngine().run(c, 10, seed=3)
        assert a.interactions == b.interactions
        assert np.array_equal(a.final_counts, b.final_counts)

    def test_count_engine_law_matches_on_oriented_composition(self):
        c = parallel_compose(leader_election(), uniform_bipartition(), groups_from=2)
        trials = 80
        batch = np.array(
            [BatchEngine().run(c, 10, seed=100 + i).interactions for i in range(trials)]
        )
        count = np.array(
            [CountBasedEngine().run(c, 10, seed=9000 + i).interactions for i in range(trials)]
        )
        assert stats.ks_2samp(batch, count).pvalue > 0.005

    def test_kpartition_composed_with_leader_election(self):
        """A 3-partition AND a leader, in one protocol run."""
        c = parallel_compose(uniform_k_partition(3), leader_election(), groups_from=1)
        r = CountBasedEngine().run(c, 9, seed=5)
        assert r.converged
        assert r.group_sizes.tolist() == [3, 3, 3]
        _, m2 = c.project_counts(r.final_counts)
        assert m2[0] == 1  # exactly one leader survives
