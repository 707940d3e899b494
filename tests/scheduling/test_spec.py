"""Tests for the canonical scheduler-spec grammar."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SchedulerError
from repro.scheduling import (
    GraphScheduler,
    RoundRobinScheduler,
    SchedulerSpec,
    UniformScheduler,
    parse_scheduler,
    scheduler_names,
)


class TestParse:
    @pytest.mark.parametrize(
        "name", ["uniform", "roundrobin", "graph:complete", "graph:cycle",
                 "graph:regular:4", "graph:regular:4@7"]
    )
    def test_canonical_names_round_trip(self, name):
        spec = SchedulerSpec.parse(name)
        assert spec.name == name
        assert SchedulerSpec.parse(spec.name) == spec

    def test_round_robin_alias(self):
        assert SchedulerSpec.parse("round-robin").name == "roundrobin"

    def test_whitespace_and_case_normalized(self):
        assert SchedulerSpec.parse("  Graph:Cycle ").name == "graph:cycle"

    def test_graph_seed_zero_is_omitted_from_name(self):
        assert SchedulerSpec.parse("graph:regular:4@0").name == "graph:regular:4"

    def test_spec_passes_through(self):
        spec = SchedulerSpec.parse("graph:cycle")
        assert SchedulerSpec.parse(spec) is spec

    def test_unknown_name_rejected(self):
        with pytest.raises(SchedulerError, match="unknown scheduler"):
            SchedulerSpec.parse("adversarial")

    def test_unknown_name_lists_templates(self):
        with pytest.raises(SchedulerError) as excinfo:
            SchedulerSpec.parse("nope")
        for template in scheduler_names():
            assert template in str(excinfo.value)

    def test_degree_one_rejected(self):
        with pytest.raises(SchedulerError, match="degree must be >= 2"):
            SchedulerSpec.parse("graph:regular:1")

    def test_non_integer_degree_rejected(self):
        with pytest.raises(SchedulerError, match="graph:regular"):
            SchedulerSpec.parse("graph:regular:four")

    def test_non_string_rejected(self):
        with pytest.raises(SchedulerError, match="name or SchedulerSpec"):
            SchedulerSpec.parse(7)  # type: ignore[arg-type]

    def test_module_level_alias(self):
        assert parse_scheduler("uniform") == SchedulerSpec("uniform")


class TestIsUniform:
    def test_only_uniform_is_uniform(self):
        assert SchedulerSpec.parse("uniform").is_uniform
        # graph:complete has the same edge *distribution* but a
        # different RNG stream, so it must not be treated as uniform.
        for name in ("roundrobin", "graph:complete", "graph:cycle"):
            assert not SchedulerSpec.parse(name).is_uniform


class TestBuildGraph:
    def test_complete_and_cycle(self):
        assert SchedulerSpec.parse("graph:complete").build_graph(5).size() == 10
        assert SchedulerSpec.parse("graph:cycle").build_graph(5).size() == 5

    def test_regular_graph_deterministic_in_spec(self):
        spec = SchedulerSpec.parse("graph:regular:4")
        a = set(map(frozenset, spec.build_graph(12).edges))
        b = set(map(frozenset, spec.build_graph(12).edges))
        assert a == b

    def test_graph_seed_selects_the_topology(self):
        a = SchedulerSpec.parse("graph:regular:4@1").build_graph(20)
        b = SchedulerSpec.parse("graph:regular:4@2").build_graph(20)
        assert set(map(frozenset, a.edges)) != set(map(frozenset, b.edges))

    def test_infeasible_regular_graph_rejected(self):
        with pytest.raises(SchedulerError, match="no 8-regular graph"):
            SchedulerSpec.parse("graph:regular:8").build_graph(6)
        with pytest.raises(SchedulerError, match="no 3-regular graph"):
            SchedulerSpec.parse("graph:regular:3").build_graph(7)

    def test_non_graph_spec_has_no_graph(self):
        with pytest.raises(SchedulerError, match="no interaction graph"):
            SchedulerSpec.parse("uniform").build_graph(5)

    def test_edge_array_matches_graph_scheduler_order(self):
        # Bit-identity of the graph engine depends on sampling the
        # edges in exactly the order GraphScheduler stores them.
        spec = SchedulerSpec.parse("graph:regular:4")
        sched = GraphScheduler(spec.build_graph(16), seed=0)
        arr = spec.edge_array(16)
        assert arr.dtype == np.int64
        assert arr.shape == (32, 2)
        assert np.array_equal(arr, sched.edges)


class TestBuild:
    def test_build_dispatches_by_kind(self):
        rng = np.random.default_rng(0)
        assert isinstance(
            SchedulerSpec.parse("uniform").build(6, rng), UniformScheduler
        )
        assert isinstance(
            SchedulerSpec.parse("roundrobin").build(6, rng), RoundRobinScheduler
        )
        assert isinstance(
            SchedulerSpec.parse("graph:cycle").build(6, rng), GraphScheduler
        )

    def test_build_is_a_scheduler_factory(self):
        # The bound method must be usable as a BatchEngine scheduler
        # factory: (n, rng) -> Scheduler.
        spec = SchedulerSpec.parse("graph:cycle")
        sched = spec.build(8, np.random.default_rng(1))
        a, b = sched.next_block(100)
        assert np.abs(a - b).max() <= 7  # cycle edges only

    def test_specs_pickle(self):
        import pickle

        spec = SchedulerSpec.parse("graph:regular:4@3")
        assert pickle.loads(pickle.dumps(spec)) == spec
