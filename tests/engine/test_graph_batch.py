"""Tests for the pair-loop engine on graph-restricted schedulers.

``agent`` and ``graph`` on a ``graph:*`` scheduler are one engine
under two names, so their records must be equal apart from the name
(the draw-for-draw pin against a :class:`GraphScheduler` object lives
in ``tests/scheduling/test_graph.py``).  The rest pins the session
contract (budget exhaustion, sliced snapshot/restore through bytes,
topology-mismatch rejection), the once-per-run edge array, and the
``engine_for_scheduler`` router.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SimulationError
from repro.campaign import CampaignStore, JobSpec, run_campaign
from repro.conform.differ import start_driven
from repro.engine import (
    BatchEngine,
    CountBasedEngine,
    SessionState,
    build_engine,
    engine_for_scheduler,
    run_trials,
)
from repro.protocols import graph_bipartition, uniform_k_partition
from repro.scheduling import SchedulerSpec

PROTO = uniform_k_partition(3)
GRAPH_PROTO = graph_bipartition()


def science(result) -> dict:
    """Result record minus timing and the engine's own name."""
    record = result.to_record()
    record.pop("elapsed")
    record.pop("engine")
    return record


def graph_engine(scheduler) -> BatchEngine:
    return engine_for_scheduler("graph", scheduler)


class TestBitIdentity:
    """``agent`` and ``graph`` on one graph scheduler: one run."""

    @pytest.mark.parametrize(
        ("scheduler", "n"),
        [
            ("graph:complete", 24),
            ("graph:cycle", 16),
            ("graph:regular:4", 18),
            ("graph:regular:4@3", 18),
        ],
    )
    def test_matches_agent_engine_with_graph_scheduler(self, scheduler, n):
        agent = engine_for_scheduler("agent", scheduler).run(
            GRAPH_PROTO, n, seed=11, max_interactions=2_000_000
        )
        graph = graph_engine(scheduler).run(
            GRAPH_PROTO, n, seed=11, max_interactions=2_000_000
        )
        assert (agent.engine, graph.engine) == ("agent", "graph")
        assert science(agent) == science(graph)
        assert agent.interactions == graph.interactions
        assert agent.effective_interactions == graph.effective_interactions
        assert np.array_equal(agent.final_counts, graph.final_counts)

    def test_bit_identity_holds_for_the_source_protocol_too(self):
        agent = engine_for_scheduler("agent", "graph:cycle").run(
            PROTO, 12, seed=12, max_interactions=300_000
        )
        graph = graph_engine("graph:cycle").run(
            PROTO, 12, seed=12, max_interactions=300_000
        )
        assert science(agent) == science(graph)


class TestSessionContract:
    def test_budget_exhaustion_is_exact(self):
        r = graph_engine("graph:cycle").run(
            GRAPH_PROTO, 30, seed=0, max_interactions=77
        )
        assert not r.converged
        assert r.interactions == 77

    def test_sliced_snapshot_restore_bit_identical(self):
        engine = graph_engine("graph:regular:4")
        whole = engine.run(GRAPH_PROTO, 20, seed=13, max_interactions=500_000)

        session = engine.start(
            GRAPH_PROTO, 20, seed=13, max_interactions=500_000
        )
        for cut in (1, 7, 4096, 5000):
            if session.advance(cut).terminal:
                break
            blob = session.snapshot().to_bytes()
            session = engine.start(
                GRAPH_PROTO, 20, seed=999, max_interactions=500_000
            )
            session.restore(SessionState.from_bytes(blob))
        while not session.advance(10_000).terminal:
            pass
        assert science(session.result()) == science(whole)

    def test_restore_rejects_other_topology(self):
        blob = (
            graph_engine("graph:cycle")
            .start(GRAPH_PROTO, 12, seed=0)
            .snapshot()
            .to_bytes()
        )
        target = graph_engine("graph:complete").start(
            GRAPH_PROTO, 12, seed=0
        )
        with pytest.raises(SimulationError, match="snapshot was taken on scheduler"):
            target.restore(SessionState.from_bytes(blob))


class TestConstruction:
    def test_rejects_non_graph_scheduler(self):
        with pytest.raises(SimulationError, match="graph"):
            BatchEngine("uniform", name="graph")
        with pytest.raises(SimulationError, match="graph"):
            BatchEngine("roundrobin", name="graph")
        with pytest.raises(SimulationError, match="uniform"):
            BatchEngine("graph:cycle", name="batch")

    def test_edge_array_cached_and_read_only(self):
        engine = graph_engine("graph:cycle")
        edges = engine.edge_array(10)
        assert edges is engine.edge_array(10)
        assert edges.dtype == np.int64
        with pytest.raises(ValueError):
            edges[0, 0] = 99

    def test_edge_array_matches_the_spec(self):
        engine = graph_engine("graph:regular:4@2")
        spec = SchedulerSpec.parse("graph:regular:4@2")
        assert np.array_equal(engine.edge_array(16), spec.edge_array(16))

    def test_accepts_a_parsed_spec(self):
        spec = SchedulerSpec.parse("graph:cycle")
        assert BatchEngine(spec, name="graph").spec is spec
        assert build_engine("graph").spec.name == "graph:complete"


class TestRouter:
    """engine_for_scheduler: the single place run_trials/CLI resolve from."""

    def test_uniform_passthrough(self):
        engine = CountBasedEngine()
        assert engine_for_scheduler(engine, None) is engine
        assert engine_for_scheduler(engine, "uniform") is engine
        assert engine_for_scheduler(None, None).name == "count"

    def test_graph_defaults_to_graph_engine(self):
        engine = engine_for_scheduler(None, "graph:cycle")
        assert isinstance(engine, BatchEngine)
        assert (engine.name, engine.spec.name) == ("graph", "graph:cycle")

    def test_graph_with_agent_name_uses_scheduler_factory(self):
        engine = engine_for_scheduler("agent", "graph:cycle")
        assert (engine.name, engine.spec.name) == ("agent", "graph:cycle")
        r = engine.run(GRAPH_PROTO, 10, seed=1, max_interactions=500_000)
        ref = graph_engine("graph:cycle").run(
            GRAPH_PROTO, 10, seed=1, max_interactions=500_000
        )
        assert science(r) == science(ref)

    def test_roundrobin_defaults_to_agent(self):
        engine = engine_for_scheduler(None, "roundrobin")
        assert (engine.name, engine.spec.name) == ("agent", "roundrobin")

    def test_roundrobin_rejects_graph_engine(self):
        with pytest.raises(SimulationError, match="graph"):
            engine_for_scheduler("graph", "roundrobin")

    def test_uniform_only_engines_rejected_for_graph(self):
        with pytest.raises(SimulationError, match="uniform"):
            engine_for_scheduler("count", "graph:cycle")
        with pytest.raises(SimulationError, match="uniform"):
            engine_for_scheduler("batch", "roundrobin")

    def test_matching_graph_engine_instance_passes_through(self):
        engine = graph_engine("graph:cycle")
        assert engine_for_scheduler(engine, "graph:cycle") is engine

    def test_mismatched_graph_engine_instance_rejected(self):
        engine = graph_engine("graph:cycle")
        with pytest.raises(SimulationError, match="configured for"):
            engine_for_scheduler(engine, "graph:complete")

    def test_plain_agent_instance_gets_rebuilt_with_factory(self):
        rebuilt = engine_for_scheduler(build_engine("agent"), "graph:cycle")
        assert (rebuilt.name, rebuilt.spec.name) == ("agent", "graph:cycle")
        r = rebuilt.run(GRAPH_PROTO, 10, seed=2, max_interactions=500_000)
        assert r.converged


class TestOneGraphBuildPerRun:
    """The edge array is built once per run, not once per trial, under
    both names that run graph schedulers."""

    @pytest.fixture()
    def builds(self, monkeypatch):
        calls: list[int] = []
        build_graph = SchedulerSpec.build_graph

        def counting(spec, n):
            calls.append(n)
            return build_graph(spec, n)

        monkeypatch.setattr(SchedulerSpec, "build_graph", counting)
        return calls

    @pytest.mark.parametrize("engine", ["agent", "graph"])
    def test_run_trials_builds_the_graph_once(self, builds, engine):
        ts = run_trials(
            GRAPH_PROTO, 12, trials=4, engine=engine, seed=3,
            scheduler="graph:regular:4",
        )
        assert ts.all_converged
        assert builds == [12]

    def test_driven_session_builds_no_graph(self, builds):
        session = start_driven("graph", PROTO, PROTO.initial_counts(30))
        session.apply_scheduled(0, 1, 0, 0)
        assert builds == []

    @pytest.mark.parametrize("engine", ["agent", "graph"])
    def test_campaign_job_builds_the_graph_once(self, builds, tmp_path, engine):
        spec = JobSpec(
            protocol="graph-bipartition", n=12, trials=4, engine=engine,
            seed=3, scheduler="graph:cycle",
        )
        store = CampaignStore(tmp_path / "c.db")
        try:
            store.submit(spec)
            report = run_campaign(store)
        finally:
            store.close()
        assert report.executed == 1
        assert builds == [12]
