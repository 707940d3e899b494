"""Tests for the interaction-graph-restricted scheduler."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core import SchedulerError
from repro.engine import BatchEngine, engine_for_scheduler
from repro.protocols import graph_bipartition, uniform_k_partition
from repro.scheduling import GraphScheduler, SchedulerSpec


class TestValidation:
    def test_nodes_must_be_range(self):
        g = nx.Graph()
        g.add_edge("a", "b")
        with pytest.raises(SchedulerError, match="0..n-1"):
            GraphScheduler(g)

    def test_no_edges_rejected(self):
        g = nx.empty_graph(4)
        with pytest.raises(SchedulerError, match="no edges"):
            GraphScheduler(g)

    def test_self_loops_rejected(self):
        g = nx.complete_graph(3)
        g.add_edge(1, 1)
        with pytest.raises(SchedulerError, match="self-loops"):
            GraphScheduler(g)


class TestSampling:
    def test_only_edges_sampled(self):
        g = nx.cycle_graph(6)
        sched = GraphScheduler(g, seed=0)
        a, b = sched.next_block(5_000)
        edges = {frozenset(e) for e in g.edges}
        for x, y in zip(a.tolist(), b.tolist()):
            assert frozenset((x, y)) in edges

    def test_complete_graph_is_uniform(self):
        sched = GraphScheduler.complete(5, seed=1)
        assert sched.is_uniform
        assert sched.is_connected

    def test_cycle_not_uniform(self):
        sched = GraphScheduler.cycle(5, seed=2)
        assert not sched.is_uniform

    def test_random_regular_constructor(self):
        sched = GraphScheduler.random_regular(3, 8, seed=3)
        assert sched.n == 8
        assert all(d == 3 for _, d in sched.graph.degree)

    def test_orientations_occur_both_ways(self):
        g = nx.Graph([(0, 1)])
        sched = GraphScheduler(g, seed=4)
        a, _ = sched.next_block(1_000)
        assert 300 < int((a == 0).sum()) < 700

    def test_random_regular_graph_seed_selects_topology(self):
        # Regression: the constructor hardcoded seed=0 into
        # nx.random_regular_graph, so every "random" regular topology
        # was the same graph no matter what the caller asked for.
        edge_sets = {
            frozenset(
                frozenset(e)
                for e in GraphScheduler.random_regular(
                    3, 20, graph_seed=gs
                ).graph.edges
            )
            for gs in range(4)
        }
        assert len(edge_sets) > 1

    def test_random_regular_graph_seed_is_reproducible(self):
        a = GraphScheduler.random_regular(3, 20, seed=1, graph_seed=5)
        b = GraphScheduler.random_regular(3, 20, seed=2, graph_seed=5)
        # Same topology (graph_seed), different schedule stream (seed).
        assert np.array_equal(a.edges, b.edges)
        assert not np.array_equal(
            np.column_stack(a.next_block(64)),
            np.column_stack(b.next_block(64)),
        )

    def test_random_regular_default_topology_unchanged(self):
        # Backward compatibility: the old hardcoded topology was
        # graph_seed=0, which stays the default.
        old = GraphScheduler.random_regular(3, 10, seed=0)
        explicit = GraphScheduler.random_regular(3, 10, seed=0, graph_seed=0)
        assert np.array_equal(old.edges, explicit.edges)


class TestCaptureRestore:
    def test_capture_restore_replays_the_stream(self):
        sched = GraphScheduler.cycle(8, seed=5)
        sched.next_block(100)
        state = sched.capture_state()
        first = np.column_stack(sched.next_block(64))
        sched.restore_state(state)
        again = np.column_stack(sched.next_block(64))
        assert np.array_equal(first, again)

    def test_capture_state_has_no_graph_payload(self):
        # Session snapshots deep-copy the captured dict; the immutable
        # topology must stay shared, not serialized per snapshot.
        state = GraphScheduler.cycle(8, seed=6).capture_state()
        assert set(state) == {"rng"}


def test_scheduler_object_run_equals_the_graph_name():
    # A GraphScheduler factory draws through the scheduler object; the
    # ``graph`` name draws edge_pairs over the cached edge array on the
    # session RNG.  Same edges, same stream: the same run.
    spec = SchedulerSpec.parse("graph:regular:4@3")
    kwargs = dict(seed=11, max_interactions=2_000_000, track_state="g1")
    by_object = BatchEngine(
        lambda n, rng: GraphScheduler(spec.build_graph(n), rng), name="graph"
    ).run(graph_bipartition(), 18, **kwargs)
    by_name = engine_for_scheduler("graph", spec).run(
        graph_bipartition(), 18, **kwargs
    )
    assert by_name.converged
    record = by_object.to_record()
    expected = by_name.to_record()
    record.pop("elapsed")
    expected.pop("elapsed")
    assert record == expected


class TestProtocolOnGraphs:
    """The paper's protocol on restricted (connected) interaction graphs.

    The correctness proof assumes the complete graph; these tests probe
    robustness: on dense connected graphs the random-edge schedule is
    globally fair w.p. 1 over the available pairs, and the protocol
    still stabilizes to the uniform partition.
    """

    @pytest.mark.parametrize(
        "make_graph",
        [
            lambda n: nx.complete_graph(n),
            lambda n: nx.random_regular_graph(4, n, seed=7),
        ],
        ids=["complete", "4-regular"],
    )
    def test_stabilizes_on_connected_graphs(self, make_graph):
        n, k = 12, 3
        proto = uniform_k_partition(k)
        engine = BatchEngine(
            lambda n_, rng: GraphScheduler(make_graph(n_), rng), name="agent"
        )
        result = engine.run(proto, n, seed=8, max_interactions=2_000_000)
        assert result.converged
        assert result.group_sizes.tolist() == [4, 4, 4]

    def test_cycle_graph_can_deadlock_the_protocol(self):
        # The paper's proof assumes the complete interaction graph; on
        # sparse graphs the protocol is genuinely NOT correct.  Place
        # the two remaining free agents of a bipartition run on
        # opposite sides of a cycle, separated by committed agents:
        # they can only flip forever and never meet, so the uniform
        # partition is unreachable.  This documents the limitation.
        proto = uniform_k_partition(2)
        layout = ["initial", "g1", "g2", "g1", "initial", "g2", "g1", "g2"]
        engine = BatchEngine(
            lambda n, rng: GraphScheduler.cycle(n, rng), name="agent"
        )
        result = engine.run(
            proto, initial_states=layout, seed=9, max_interactions=100_000
        )
        assert not result.converged
        # The committed counts never move: g1 = g2 = 3, two agents free.
        g1 = proto.space.index("g1")
        g2 = proto.space.index("g2")
        assert result.final_counts[g1] == 3
        assert result.final_counts[g2] == 3

    def test_initial_states_positionally_respected(self):
        # Same multiset, adjacent free agents: now the cycle CAN finish.
        proto = uniform_k_partition(2)
        layout = ["initial", "initial", "g1", "g2", "g1", "g2", "g1", "g2"]
        engine = BatchEngine(
            lambda n, rng: GraphScheduler.cycle(n, rng), name="agent"
        )
        result = engine.run(
            proto, initial_states=layout, seed=10, max_interactions=1_000_000
        )
        assert result.converged
        assert result.group_sizes.tolist() == [4, 4]
