"""Tests for transition-table mutation and the harness self-test."""

from __future__ import annotations

import pytest

from repro.conform import mutate_protocol, self_test
from repro.core import ProtocolError
from repro.protocols import (
    approximate_k_partition,
    available_protocols,
    build_protocol,
    leader_election,
    uniform_k_partition,
)
from .test_registry_conformance import CASES


@pytest.fixture(scope="module")
def proto():
    return uniform_k_partition(3)


class TestMutateProtocol:
    def test_changes_exactly_one_canonical_rule(self, proto):
        mutated = mutate_protocol(proto, ("initial", "initial'"))
        assert mutated.name == f"{proto.name}-mutated"
        assert "mutation" in mutated.metadata
        # Rule 5 (initial, initial') -> (g1, m2) becomes (g1, g1).
        t = mutated.transitions.lookup("initial", "initial'")
        assert t is not None
        assert (t.p2, t.q2) == ("g1", "g1")
        # The pristine protocol is untouched.
        orig = proto.transitions.lookup("initial", "initial'")
        assert (orig.p2, orig.q2) == ("g1", "m2")

    def test_mutation_preserves_mirror_folding(self, proto):
        mutated = mutate_protocol(proto, ("initial", "initial'"))
        rev = mutated.transitions.lookup("initial'", "initial")
        assert rev is not None
        assert (rev.p2, rev.q2) == ("g1", "g1")

    def test_shares_space_and_stability(self, proto):
        mutated = mutate_protocol(proto, 0)
        assert mutated.space is proto.space
        assert mutated.num_states == proto.num_states
        assert mutated.initial_state == proto.initial_state

    @pytest.mark.parametrize("name", available_protocols())
    def test_keeps_the_initial_configuration(self, name):
        # weak-k-partition starts with one designated leader; a mutant
        # starting without it would be silent at once.  A protocol with
        # no designated initial state must refuse in both copies.
        def initial(protocol, n):
            try:
                return list(protocol.initial_counts(n))
            except ProtocolError:
                return None

        protocol = build_protocol(name, **CASES[name]["params"])
        mutated = mutate_protocol(protocol, 0)
        for n in (6, 13):
            assert initial(mutated, n) == initial(protocol, n)

    def test_keeps_the_signature_or_the_predicate(self, proto):
        mutated = mutate_protocol(proto, 0)
        assert mutated.stability_signature(10) == proto.stability_signature(10)
        plain = approximate_k_partition(3)
        mutated = mutate_protocol(plain, 0)
        assert mutated.stability_signature(12) is None
        counts = plain.initial_counts(12)
        assert mutated.stability_predicate(12)(counts) == (
            plain.stability_predicate(12)(counts)
        )

    def test_index_selection(self, proto):
        # Index 0 must be a real table rule with changed semantics.
        mutated = mutate_protocol(proto, 0)
        diffs = [
            t
            for t in proto.transitions
            if mutated.transitions.lookup(t.p, t.q) != t
        ]
        assert diffs

    def test_rejects_out_of_range_index(self, proto):
        with pytest.raises(ProtocolError, match="out of range"):
            mutate_protocol(proto, 10**6)

    def test_rejects_null_pair(self, proto):
        with pytest.raises(ProtocolError, match="no non-null rule"):
            mutate_protocol(proto, ("g1", "g1"))

    def test_other_protocols_mutable(self):
        mutated = mutate_protocol(leader_election(), 0)
        assert mutated.name.endswith("-mutated")


class TestSelfTest:
    def test_harness_catches_planted_bug(self):
        assert self_test() == []

    def test_small_population_still_passes(self):
        assert self_test(n=24, seed=5) == []

    def test_default_grid_covers_every_invariant_family(self, monkeypatch):
        # self_test imports run_differential from the differ module at
        # call time, so spy there.
        import repro.conform.differ as differ

        calls = []
        orig = differ.run_differential

        def spy(protocol, *args, **kwargs):
            calls.append(protocol.name)
            return orig(protocol, *args, **kwargs)

        monkeypatch.setattr(differ, "run_differential", spy)
        assert self_test(n=24, seed=5) == []
        names = set(calls)
        assert any("partition" in name for name in names)
        assert "weak-3-partition" in names
        assert "graph-bipartition" in names

    def test_explicit_protocol_skips_the_grid(self):
        from repro.protocols import graph_bipartition

        assert self_test(graph_bipartition(), n=24, seed=5) == []
