"""End-to-end integration tests across the whole stack."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    CountBasedEngine,
    available_protocols,
    build_protocol,
    run_trials,
    uniform_k_partition,
)
from repro.analysis import decompose_groupings, verify_kpartition
from repro.conform import ConformanceMonitor, invariant_pack
from repro.engine import AgentBasedEngine
from repro.scheduling import GraphScheduler


class TestPublicApi:
    def test_quickstart_from_docstring(self):
        """The README / package-docstring quickstart must work as shown."""
        protocol = uniform_k_partition(3)
        trials = run_trials(protocol, n=30, trials=10, seed=0)
        assert trials.all_converged
        assert trials.results[0].group_sizes.tolist() == [10, 10, 10]

    def test_every_registered_protocol_simulates(self):
        """Every protocol in the registry runs end-to-end on an engine."""
        params = {
            "uniform-k-partition": {"k": 3},
            "uniform-bipartition": {},
            "repeated-bipartition": {"h": 2},
            "approx-k-partition": {"k": 3},
            "r-generalized-partition": {"ratio": (1, 2)},
            "leader-election": {},
            "approximate-majority": {},
            "weak-k-partition": {"k": 3},
            "graph-bipartition": {},
        }
        assert set(params) == set(available_protocols())
        for name, kw in params.items():
            p = build_protocol(name, **kw)
            if p.initial_state is None:
                init = np.zeros(p.num_states, dtype=np.int64)
                init[0] = 7
                init[1] = 5
                r = CountBasedEngine().run(p, initial_counts=init, seed=1)
            else:
                r = CountBasedEngine().run(p, 12, seed=1)
            assert r.converged, name


class TestFullPipeline:
    def test_simulate_analyze_verify_loop(self):
        """One (k, n): simulate with monitoring, decompose, model-check."""
        k, n = 3, 9
        p = uniform_k_partition(k)

        # 1. Simulate with the invariant pack (Lemma 1 among it) attached.
        monitor = ConformanceMonitor(invariant_pack(p, n))
        r = AgentBasedEngine().run(p, n, seed=2, on_effective=monitor, track_state="g3")
        assert r.converged
        # The initial configuration, then every effective step.
        assert monitor.checks_performed == r.effective_interactions + 1

        # 2. Decompose groupings from a trial set.
        ts = run_trials(p, n, trials=10, seed=3, track_state="g3")
        d = decompose_groupings(ts, k)
        assert d.num_groupings == 3
        assert d.mean_total == pytest.approx(ts.mean_interactions)

        # 3. Model-check the same instance exhaustively.
        report = verify_kpartition(p, n)
        assert report.correct

    def test_simulation_and_model_checker_agree_on_stable_set(self):
        """The engine's final configurations are exactly the model
        checker's stable configurations."""
        from repro.analysis import explore
        from repro.core import Configuration

        p = uniform_k_partition(3)
        n = 7
        pred = p.stability_predicate(n)
        graph = explore(Configuration.initial(p, n))
        stable_keys = {
            key for key, data in graph.nodes(data=True) if pred(data["config"].counts)
        }
        finals = set()
        for seed in range(20):
            r = CountBasedEngine().run(p, n, seed=seed)
            finals.add(tuple(int(x) for x in r.final_counts))
        assert finals <= stable_keys
        # Both r = 1 flavours should show up across 20 runs.
        assert len(finals) == 2

    def test_graph_restricted_pipeline(self):
        """Protocol + graph scheduler + trials wiring.

        On sparse graphs the protocol can genuinely deadlock (the last
        two free agents may not be adjacent — the paper's proof needs
        the complete graph), so non-convergence is allowed; converged
        trials must still produce the correct partition.
        """
        p = uniform_k_partition(2)
        engine = AgentBasedEngine(
            scheduler_factory=lambda n, rng: GraphScheduler.random_regular(4, n, rng)
        )
        ts = run_trials(
            p, 10, trials=5, engine=engine, seed=4,
            max_interactions=300_000, require_convergence=False,
        )
        converged = [r for r in ts.results if r.converged]
        assert converged, "no trial converged on the 4-regular graph"
        for r in converged:
            assert r.group_sizes.tolist() == [5, 5]

    def test_reproducibility_across_engines_and_sessions(self):
        """The documented determinism guarantee, end to end."""
        p = uniform_k_partition(4)
        a = run_trials(p, 20, trials=5, seed=42)
        b = run_trials(p, 20, trials=5, seed=42)
        assert np.array_equal(a.interactions, b.interactions)
        c = run_trials(p, 20, trials=5, seed=43)
        assert not np.array_equal(a.interactions, c.interactions)


class TestPersistencePipeline:
    def test_save_reload_simulate_verify(self, tmp_path):
        """Protocol JSON round trip feeding the whole toolchain."""
        from repro.analysis import verify_stabilization
        from repro.core import Configuration
        from repro.io import load_protocol, save_protocol

        original = uniform_k_partition(3)
        clone = load_protocol(save_protocol(original, tmp_path / "p.json"))

        # Reloaded protocols have no stability predicate; give the run
        # a budget and verify the reached configuration semantically.
        r = CountBasedEngine().run(clone, 9, seed=1, max_interactions=100_000)
        assert original.stable(r.final_counts, 9)

        # Model-check the clone with the original's predicate.
        pred = original.stability_predicate(6)
        report = verify_stabilization(
            Configuration.initial(clone, 6),
            is_stable=lambda c: pred(c.counts),
            output_ok=lambda c: True,
        )
        assert report.correct

    def test_experiment_table_roundtrip(self, tmp_path):
        from repro.experiments.state_table import run_state_table
        from repro.io import load_table

        table = run_state_table(ks=(2, 3, 4))
        path = table.write_json(tmp_path / "st.json")
        loaded = load_table(path)
        assert loaded.rows == table.rows


class TestDiscoveryPipeline:
    def test_discovered_protocol_full_toolchain(self):
        """Search candidate -> Protocol -> exact analysis -> simulation."""
        from repro.analysis import expected_interactions_exact
        from repro.analysis.search import rule_table_to_protocol
        from repro.engine import run_trials

        p = rule_table_to_protocol({(0, 0): (1, 2)}, (0, 0, 1))
        # Exact expectation (silence-based stability) vs trial mean.
        ex = expected_interactions_exact(p, 8)
        ts = run_trials(p, 8, trials=2000, seed=2)
        assert abs(ts.mean_interactions - ex.from_initial) < 5 * ts.sem_interactions
