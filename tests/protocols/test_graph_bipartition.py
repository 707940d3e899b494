"""Tests for the arbitrary-graph (mobility) bipartition protocol."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core import ProtocolError
from repro.engine import BatchEngine, CountBasedEngine, build_engine
from repro.protocols import graph_bipartition, uniform_bipartition
from repro.scheduling import GraphScheduler

#: Star layout with the two free agents parked on non-adjacent leaves
#: and the committed states balanced (node 0 is the hub).
STAR_LAYOUT = ["g1", "initial", "initial", "g2", "g1", "g2", "g1", "g2"]


def star_engine():
    return BatchEngine(
        lambda n, rng: GraphScheduler(nx.star_graph(n - 1), rng), name="agent"
    )


class TestStructure:
    def test_four_states(self):
        p = graph_bipartition()
        assert p.num_states == 4
        assert p.name == "graph-bipartition"
        assert p.metadata["topology"] == "arbitrary connected graph"

    def test_mobility_rules_swap_positions(self):
        # (g, free) moves the committed state across the edge; a g1-hop
        # resets the token's flavour (many-to-one — any invertible
        # flavour map deadlocks trees), a g2-hop preserves it.
        p = graph_bipartition()
        for flavour in ("initial", "initial'"):
            t = p.transitions.lookup("g1", flavour)
            assert (t.p2, t.q2) == ("initial'", "g1")
            t = p.transitions.lookup("g2", flavour)
            assert (t.p2, t.q2) == (flavour, "g2")

    def test_expected_group_sizes(self):
        p = graph_bipartition()
        assert p.expected_group_sizes(10).tolist() == [5, 5]
        assert p.expected_group_sizes(11).tolist() == [6, 5]
        with pytest.raises(ProtocolError):
            p.expected_group_sizes(0)


class TestConservation:
    def test_groups_balanced_along_every_run(self):
        p = graph_bipartition()

        def check(interactions, counts):
            assert p.balance_residual(counts) == 0

        r = build_engine("agent").run(p, 30, seed=0, on_effective=check)
        assert r.converged

    def test_free_parity_conserved(self):
        p = graph_bipartition()
        n = 15

        def check(interactions, counts):
            assert p.free_count(counts) % 2 == n % 2

        build_engine("agent").run(p, n, seed=1, on_effective=check)


class TestConvergence:
    # ``agent`` on the uniform scheduler is the BatchEngine execution.
    @pytest.mark.parametrize("engine_cls", [BatchEngine, CountBasedEngine])
    def test_even_n_balances_exactly(self, engine_cls):
        r = engine_cls().run(graph_bipartition(), 40, seed=2)
        assert r.converged
        assert r.group_sizes.tolist() == [20, 20]

    def test_odd_n_stable_but_not_silent(self):
        p = graph_bipartition()
        r = CountBasedEngine().run(p, 15, seed=3)
        assert r.converged
        counts = r.final_counts
        assert p.free_count(counts) == 1  # the hopping leftover token
        assert p.balance_residual(counts) == 0

    def test_n2_inherits_the_flavour_toggle_livelock(self):
        r = CountBasedEngine().run(
            graph_bipartition(), 2, seed=4, max_interactions=10_000
        )
        assert not r.converged

    def test_converges_on_cycle_and_regular_graphs(self):
        p = graph_bipartition()
        for topo in ("cycle", "regular"):
            engine = BatchEngine(
                lambda n, rng, t=topo: (
                    GraphScheduler.cycle(n, rng)
                    if t == "cycle"
                    else GraphScheduler.random_regular(4, n, rng)
                ),
                name="agent",
            )
            r = engine.run(p, 20, seed=5, max_interactions=2_000_000)
            assert r.converged, topo
            assert r.group_sizes.tolist() == [10, 10]


class TestStarGraph:
    """The pin referenced from the module docstring: mobility is load-bearing.

    On a star graph the two free agents can sit on non-adjacent leaves.
    The static 4-state protocol only flips their flavour through the
    hub, so they stay parked forever — a genuine deadlock.  The
    mobility rules swap the free token onto the hub, after which the
    two frees meet and commit.
    """

    def test_static_protocol_deadlocks(self):
        proto = uniform_bipartition()
        r = star_engine().run(
            proto, initial_states=STAR_LAYOUT, seed=6, max_interactions=200_000
        )
        assert not r.converged
        g1 = proto.space.index("g1")
        g2 = proto.space.index("g2")
        # The committed counts never move: the frees only flip flavour.
        assert r.final_counts[g1] == 3
        assert r.final_counts[g2] == 3

    def test_mobility_protocol_succeeds_on_the_same_layout(self):
        r = star_engine().run(
            graph_bipartition(),
            initial_states=STAR_LAYOUT,
            seed=6,
            max_interactions=2_000_000,
        )
        assert r.converged
        assert r.group_sizes.tolist() == [4, 4]

    def test_mobility_protocol_from_all_initial_on_star(self):
        # Regression: with an invertible per-hop flavour map (e.g. flip
        # on every hop), (side + flavour) per token is conserved on
        # bipartite graphs, and an 11-leaf star starts all-initial in
        # the parity class that can never commit its last two tokens.
        # The flavour-reset rule has no such invariant.
        r = star_engine().run(
            graph_bipartition(), 12, seed=7, max_interactions=20_000_000
        )
        assert r.converged
        assert r.group_sizes.tolist() == [6, 6]

    @pytest.mark.parametrize(
        ("make_graph", "n"),
        [
            (nx.cycle_graph, 22),
            (nx.path_graph, 10),
            (lambda n: nx.random_labeled_tree(n, seed=3), 16),
        ],
        ids=["even-cycle", "path", "random-tree"],
    )
    def test_previously_deadlocking_bipartite_topologies(self, make_graph, n):
        # Regression sweep over the tree/bipartite instances where both
        # invertible-flavour mobility variants demonstrably livelocked.
        engine = BatchEngine(
            lambda nn, rng: GraphScheduler(make_graph(nn), rng), name="agent"
        )
        r = engine.run(
            graph_bipartition(), n, seed=8, max_interactions=30_000_000
        )
        assert r.converged
        assert r.group_sizes.tolist() == [n // 2 + n % 2, n // 2]


class TestRegistry:
    def test_builder_round_trip(self):
        from repro.protocols import build_protocol

        p = build_protocol("graph-bipartition")
        assert isinstance(p, type(graph_bipartition()))
