"""Step-by-step reproduction of the paper's Figure 1 and Figure 2.

Both walk-throughs use a population of six agents a1..a6 running the
k = 6 protocol (the Figure 1 text ends with a6 in g6).  Agent ai is
index i-1 here.  Every intermediate configuration the paper names is
asserted exactly.
"""

from __future__ import annotations

import pytest

from repro.core import Population
from repro.protocols import uniform_k_partition


@pytest.fixture()
def pop6():
    return Population(uniform_k_partition(6), n=6)


def states(pop):
    return pop.state_names()


class TestFigure1:
    """Section 3.1's example: the basic grouping strategy."""

    def test_full_walkthrough(self, pop6):
        pop = pop6
        # (a) all agents in initial.
        assert states(pop) == ["initial"] * 6

        # (a1,a2), (a3,a4), (a5,a6): everyone flips to initial' (b).
        pop.run_script([(0, 1), (2, 3), (4, 5)])
        assert states(pop) == ["initial'"] * 6

        # (a1,a6), (a2,a3), (a4,a5): everyone flips back to initial (c).
        pop.run_script([(0, 5), (1, 2), (3, 4)])
        assert states(pop) == ["initial"] * 6

        # (a5,a6): both to initial' (d).
        pop.run_script([(4, 5)])
        assert states(pop) == ["initial"] * 4 + ["initial'"] * 2

        # (a1,a6): rule 5 fires - a1 (initial) -> g1, a6 (initial') -> m2 (e).
        pop.run_script([(0, 5)])
        assert pop.state_of(0) == "g1"
        assert pop.state_of(5) == "m2"

        # (a6,a2), (a6,a3), (a6,a4), (a6,a5): the chain absorbs the
        # remaining agents; a6 walks m2 -> m3 -> m4 -> m5 -> g6 (f).
        pop.run_script([(5, 1)])
        assert pop.state_of(1) == "g2" and pop.state_of(5) == "m3"
        pop.run_script([(5, 2)])
        assert pop.state_of(2) == "g3" and pop.state_of(5) == "m4"
        pop.run_script([(5, 3)])
        assert pop.state_of(3) == "g4" and pop.state_of(5) == "m5"
        pop.run_script([(5, 4)])
        assert states(pop) == ["g1", "g2", "g3", "g4", "g5", "g6"]

        # The final configuration is the stable uniform 6-partition.
        proto = pop.protocol
        assert proto.stable(pop.counts, 6)
        assert pop.group_sizes().tolist() == [1, 1, 1, 1, 1, 1]

    def test_flip_cycle_is_not_progress(self, pop6):
        # The paper notes the all-initial <-> all-initial' cycle could
        # repeat forever under an unfair scheduler; the configuration
        # after a full cycle is exactly the starting one.
        pop = pop6
        before = pop.configuration()
        pop.run_script([(0, 1), (2, 3), (4, 5)])  # all to initial'
        pop.run_script([(0, 5), (1, 2), (3, 4)])  # all back to initial
        assert pop.configuration() == before


class TestFigure2:
    """Section 3.2's example: chain collision and the D-state reset."""

    def build_fig2a(self, pop):
        # Reach Figure 2 (a): {a1: g1, a2: g1, a3: initial, a4: initial,
        # a5: m2, a6: m2} - two chains started via two rule-5 events.
        pop.run_script([(4, 5)])        # a5, a6 -> initial'
        pop.run_script([(0, 5)])        # a1 -> g1, a6 -> m2
        pop.run_script([(1, 4)])        # a2 -> g1, a5 -> m2
        assert states(pop) == ["g1", "g1", "initial", "initial", "m2", "m2"]

    def test_full_walkthrough(self, pop6):
        pop = pop6
        self.build_fig2a(pop)

        # (a2,a5): a2 is already g1, so this interaction is null -
        # "transitions of the basic strategy are not applied" to it.
        assert pop.run_script([(1, 4)]) == 0

        # (a3,a5), (a4,a5): a5's chain absorbs a3 and a4 (b -> c).
        pop.run_script([(2, 4)])
        assert pop.state_of(2) == "g2" and pop.state_of(4) == "m3"
        pop.run_script([(3, 4)])
        assert pop.state_of(3) == "g3" and pop.state_of(4) == "m4"
        # Figure 2 (c): no free agents remain; rules 1-7 cannot fire.
        assert states(pop) == ["g1", "g1", "g2", "g3", "m4", "m2"]

        # (a5,a6): rule 8 - the chains collide; a5 -> d3, a6 -> d1 (d).
        pop.run_script([(4, 5)])
        assert pop.state_of(4) == "d3"
        assert pop.state_of(5) == "d1"

        # (a1,a6): rule 10 - d1 + g1 -> both initial.
        pop.run_script([(0, 5)])
        assert pop.state_of(0) == "initial" and pop.state_of(5) == "initial"

        # (a4,a5): rule 9 - d3 + g3 -> d2 + initial.
        pop.run_script([(3, 4)])
        assert pop.state_of(3) == "initial" and pop.state_of(4) == "d2"

        # (a3,a5): rule 9 - d2 + g2 -> d1 + initial.
        pop.run_script([(2, 4)])
        assert pop.state_of(2) == "initial" and pop.state_of(4) == "d1"

        # (a2,a5): rule 10 - d1 + g1 -> both initial (e): full reset.
        pop.run_script([(1, 4)])
        assert states(pop) == ["initial"] * 6

    def test_lemma1_holds_at_every_figure2_step(self, pop6):
        # Replay the whole Figure 2 script, snapshotting the start and
        # every step, and verify the Lemma 1 invariant in each
        # configuration.
        pop = pop6
        proto = pop.protocol
        script = [
            (4, 5), (0, 5), (1, 4),           # reach (a)
            (1, 4), (2, 4), (3, 4),           # (a) -> (c)
            (4, 5),                           # rule 8
            (0, 5), (3, 4), (2, 4), (1, 4),   # unwind to all-initial
        ]
        configurations = [pop.configuration()]
        for a, b in script:
            pop.interact(a, b)
            configurations.append(pop.configuration())
        for config in configurations:
            assert proto.satisfies_lemma1(config.counts)
