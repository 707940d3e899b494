"""Tests for the seed-corpus conformance fuzzer."""

from __future__ import annotations

import pytest

from repro.conform import FuzzCase, default_corpus, run_fuzz
from repro.conform.fuzzer import SCHEDULERS


class TestCorpus:
    def test_deterministic_for_fixed_seed(self):
        a = default_corpus(seed=7)
        b = default_corpus(seed=7)
        assert [c.label() for c in a] == [c.label() for c in b]

    def test_distinct_seeds_per_case(self):
        seeds = [c.seed for c in default_corpus()]
        assert len(seeds) == len(set(seeds))

    def test_covers_lemma_edge_regimes(self):
        cases = default_corpus()
        kp = [
            (c.params["k"], c.n)
            for c in cases
            if c.protocol == "uniform-k-partition"
        ]
        assert any(k == 2 for k, _ in kp)           # bipartition base case
        assert any(n == k for k, n in kp)           # all-singleton groups
        assert any(n % k == 1 for k, n in kp)       # stable-but-not-silent
        assert any(n % k >= 2 for k, n in kp)       # m_r survivor

    def test_covers_adversarial_schedulers(self):
        schedulers = {c.scheduler for c in default_corpus()}
        assert {"uniform", "sticky", "round-robin"} <= schedulers
        assert schedulers <= set(SCHEDULERS)

    def test_covers_other_registry_protocols(self):
        protos = {c.protocol for c in default_corpus()}
        assert "leader-election" in protos
        assert "r-generalized-partition" in protos

    def test_every_case_buildable(self):
        for case in default_corpus():
            protocol = case.build()
            assert protocol.num_states >= 2, case.label()


class TestRunFuzz:
    def test_clean_subset(self):
        cases = [
            FuzzCase(protocol="uniform-k-partition", params={"k": 3}, n=8, seed=1),
            FuzzCase(protocol="leader-election", n=10, seed=2),
        ]
        assert run_fuzz(cases) == []

    def test_log_callback_sees_every_case(self):
        cases = [
            FuzzCase(protocol="uniform-k-partition", params={"k": 2}, n=6, seed=3)
        ]
        lines = []
        run_fuzz(cases, log=lines.append)
        assert len(lines) == 1
        assert "uniform-k-partition" in lines[0]

    def test_crash_becomes_error_finding(self):
        cases = [FuzzCase(protocol="no-such-protocol", n=8, seed=0)]
        findings = run_fuzz(cases)
        assert len(findings) == 1
        assert findings[0].kind == "error"
        assert "no-such-protocol" in findings[0].summary()

    def test_nonstabilizing_case_terminates(self):
        # n = 2 k-partition provably never converges; the budget must
        # bound the sweep rather than hang it.
        cases = [
            FuzzCase(
                protocol="uniform-k-partition",
                params={"k": 3},
                n=2,
                seed=0,
                max_interactions=2_000,
            )
        ]
        assert run_fuzz(cases) == []

    def test_default_corpus_clean(self, tmp_path):
        findings = run_fuzz(reproducer_dir=tmp_path)
        assert findings == []


class TestScenarioGrid:
    """The corpus spans the (protocol, fairness, graph) grid."""

    def test_covers_graph_schedulers(self):
        schedulers = {c.scheduler for c in default_corpus()}
        assert {"graph:complete", "graph:cycle", "graph:regular:4"} <= schedulers

    def test_covers_followup_protocols(self):
        protos = {c.protocol for c in default_corpus()}
        assert "weak-k-partition" in protos
        assert "graph-bipartition" in protos

    def test_weak_kpartition_fuzzed_under_round_robin(self):
        cases = [
            c
            for c in default_corpus()
            if c.protocol == "weak-k-partition" and c.scheduler == "round-robin"
        ]
        assert cases  # the discriminating weak-fairness scenario

    def test_graph_case_engine_split_is_clean(self):
        # A fuzzed graph case: the differential replay and the agent
        # run under its GraphScheduler come back clean.
        cases = [
            FuzzCase(
                protocol="graph-bipartition",
                n=10,
                seed=9,
                scheduler="graph:cycle",
                max_interactions=500_000,
            )
        ]
        assert run_fuzz(cases) == []

    def test_odd_n_graph_case_is_stable_not_silent(self):
        # The corpus keeps one odd-n graph case so the
        # stable-but-not-silent regime is fuzzed on restricted graphs.
        assert any(
            c.protocol == "graph-bipartition" and c.n % 2 == 1
            for c in default_corpus()
        )
