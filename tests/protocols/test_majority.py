"""Tests for the three-state approximate-majority building block."""

from __future__ import annotations

import pytest

from repro.core import ConfigurationError
from repro.engine import CountBasedEngine, run_trials
from repro.protocols import approximate_majority


@pytest.fixture(scope="module")
def proto():
    return approximate_majority()


class TestStructure:
    def test_three_states(self, proto):
        assert proto.num_states == 3

    def test_symmetric_variant(self, proto):
        assert proto.is_symmetric

    def test_no_designated_initial(self, proto):
        # Majority inputs are arbitrary opinion mixes.
        assert proto.initial_state is None

    def test_rules(self, proto):
        assert proto.transitions.apply("x", "y") == ("b", "b")
        assert proto.transitions.apply("x", "b") == ("x", "x")
        assert proto.transitions.apply("y", "b") == ("y", "y")
        assert proto.transitions.apply("x", "x") == ("x", "x")

    def test_opinion_configuration(self, proto):
        c = proto.opinion_configuration(3, 2, 1)
        assert c.n == 6
        assert c.count_of("x") == 3
        assert c.count_of("b") == 1

    def test_opinion_configuration_validation(self, proto):
        with pytest.raises(ConfigurationError):
            proto.opinion_configuration(-1, 2)
        with pytest.raises(ConfigurationError):
            proto.opinion_configuration(0, 0, 0)


class TestSimulation:
    def test_reaches_consensus(self, proto):
        init = proto.opinion_configuration(20, 10)
        r = CountBasedEngine().run(proto, initial_counts=init.counts, seed=61)
        assert r.converged
        assert r.silent
        assert proto.winner(r.final_counts) in {"x", "y", "b"}

    def test_clear_majority_usually_wins(self, proto):
        init = proto.opinion_configuration(45, 5)
        wins = 0
        trials = 20
        ts = run_trials(
            proto,
            initial_counts=init.counts,
            trials=trials,
            engine=CountBasedEngine(),
            seed=62,
        )
        for r in ts.results:
            if proto.winner(r.final_counts) == "x":
                wins += 1
        assert wins >= trials * 3 // 4  # 9:1 margin: x should dominate

    def test_tie_can_land_blank(self, proto):
        # With a 1:1 margin all-blank is a reachable consensus; just
        # assert some silent consensus is always reached.
        init = proto.opinion_configuration(10, 10)
        ts = run_trials(
            proto, initial_counts=init.counts, trials=10,
            engine=CountBasedEngine(), seed=63,
        )
        assert ts.all_converged
        for r in ts.results:
            assert proto.winner(r.final_counts) is not None

    def test_winner_of_mixed_configuration_is_none(self, proto):
        c = proto.opinion_configuration(1, 1, 1)
        assert proto.winner(c.counts) is None


class TestInitiatorVariant:
    """The oriented (initiator-wins) Angluin-Aspnes-Eisenstat form."""

    @pytest.fixture(scope="class")
    def oriented(self):
        return approximate_majority("initiator")

    def test_oriented_table(self, oriented):
        assert oriented.transitions.is_oriented
        assert oriented.transitions.apply("x", "y") == ("x", "b")
        assert oriented.transitions.apply("y", "x") == ("y", "b")

    def test_still_symmetric_in_papers_sense(self, oriented):
        # Orientedness and symmetry are different axes: no rule has
        # equal inputs with unequal outputs.
        assert oriented.is_symmetric

    def test_clear_majority_wins(self, oriented):
        from repro.engine import CountBasedEngine

        init = oriented.opinion_configuration(30, 12)
        for seed in range(10):
            r = CountBasedEngine().run(oriented, initial_counts=init.counts, seed=seed)
            assert r.converged and r.silent
            assert oriented.winner(r.final_counts) == "x"

    def test_invalid_variant_rejected(self):
        from repro.core import ConfigurationError

        with pytest.raises(ConfigurationError, match="variant"):
            approximate_majority("nope")

    def test_engines_agree_on_oriented_protocol(self, oriented):
        import numpy as np

        from repro.engine import BatchEngine, build_engine

        init = oriented.opinion_configuration(8, 5)
        a = build_engine("agent").run(oriented, initial_counts=init.counts, seed=7)
        b = BatchEngine().run(oriented, initial_counts=init.counts, seed=7)
        assert a.interactions == b.interactions
        assert np.array_equal(a.final_counts, b.final_counts)
