"""Tests for :class:`StabilitySignature` and the predicates derived from it.

The signature is each protocol's one stability test: the scalar
predicate, the vectorized predicate and the compiled kernels all read
it.  These tests pin the derived forms to the reference
:meth:`StabilitySignature.evaluate` and, for the k-partition protocols,
to the semantic definition of stability (Section 2.2) on every
reachable configuration.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.reachability import explore
from repro.analysis.stability import is_group_stable
from repro.core import (
    Configuration,
    Protocol,
    ProtocolError,
    StateSpace,
    TransitionTable,
)
from repro.core.protocol import StabilitySignature
from repro.engine import CountBasedEngine
from repro.protocols.registry import build_protocol

SIGNED = [
    ("uniform-k-partition", {"k": 2}, 9),
    ("uniform-k-partition", {"k": 3}, 13),
    ("uniform-k-partition", {"k": 5}, 23),
    ("uniform-bipartition", {}, 11),
    ("graph-bipartition", {}, 11),
    ("weak-k-partition", {"k": 3}, 10),
    ("leader-election", {}, 7),
    ("r-generalized-partition", {"ratio": (1, 2)}, 14),
]


def _random_rows(p: Protocol, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    rows = rng.multinomial(n, np.ones(p.num_states) / p.num_states, size=60)
    return rows.astype(np.int64)


class TestDerivedForms:
    @pytest.mark.parametrize("name, params, n", SIGNED)
    def test_predicate_matches_evaluate(self, name, params, n):
        p = build_protocol(name, **params)
        sig = p.stability_signature(n)
        pred = p.stability_predicate(n)
        # Random count vectors plus one converged (stable) configuration.
        stable = CountBasedEngine().run(p, n, seed=3).final_counts
        matrix = np.vstack([_random_rows(p, n, seed=n), stable])
        want = [sig.evaluate(row) for row in matrix]
        assert want[-1]
        assert [bool(pred(row)) for row in matrix] == want
        assert [bool(pred(list(row))) for row in matrix] == want

    def test_multi_state_sums_are_checked(self):
        sig = StabilitySignature((((0,), 1), ((1, 2), 3), ((3,), 0)))
        rows = np.array(
            [[1, 1, 2, 0], [1, 3, 1, 0], [1, 2, 2, 0], [0, 2, 1, 1], [1, 3, 0, 1]]
        )
        want = [sig.evaluate(r) for r in rows]
        assert want == [True, False, False, False, False]
        assert [sig.predicate()(r) for r in rows] == want
        assert sig.batch()(rows).tolist() == want

    @pytest.mark.parametrize(
        "groups", [(), (((0, 1), 2), ((2,), 0))], ids=["empty", "sum-lead"]
    )
    def test_signatures_without_a_single_state_lead(self, groups):
        sig = StabilitySignature(groups)
        rows = np.array([[1, 1, 0], [2, 0, 1], [0, 1, 0]])
        want = [sig.evaluate(r) for r in rows]
        assert [sig.predicate()(r) for r in rows] == want
        assert sig.batch()(rows).tolist() == want


class TestOneStabilitySource:
    def _space(self):
        space = StateSpace(["a", "b"])
        return space, TransitionTable(space)

    def test_both_factories_raise(self):
        space, table = self._space()
        with pytest.raises(ProtocolError, match="not both"):
            Protocol(
                "p", space, table, "a",
                stability_signature_factory=lambda n: StabilitySignature(
                    (((0,), n),)
                ),
                stability_predicate_factory=lambda n: (lambda c: True),
            )

    def test_signature_drives_both_predicates(self):
        space, table = self._space()
        p = Protocol(
            "p", space, table, "a",
            stability_signature_factory=lambda n: StabilitySignature(
                (((1,), n - 1),)
            ),
        )
        assert p.has_stability_signature
        assert p.stability_predicate(5)([1, 4])
        assert not p.stability_predicate(5)([2, 3])
        assert p.batch_stability_predicate(5)(
            np.array([[1, 4], [2, 3]])
        ).tolist() == [True, False]

    def test_predicate_only_protocol_has_no_signature(self):
        space, table = self._space()
        p = Protocol(
            "p", space, table, "a",
            stability_predicate_factory=lambda n: (lambda c: c[0] == 1),
        )
        assert not p.has_stability_signature
        assert p.stability_signature(5) is None
        assert p.batch_stability_predicate(5)(
            np.array([[1, 4], [2, 3]])
        ).tolist() == [True, False]


class TestSemanticReference:
    """The derived predicate decides exactly like the semantic definition
    of stability (:func:`is_group_stable`) on every reachable configuration.

    The bipartitions are left out by design: ``graph-bipartition``'s
    signature accepts token-swap configurations that are not
    group-stable in the count quotient, and ``uniform-bipartition``'s
    rejects two that are.
    """

    @pytest.mark.parametrize(
        "name, params, ns",
        [
            ("uniform-k-partition", {"k": 3}, range(4, 10)),
            ("uniform-k-partition", {"k": 4}, range(5, 10)),
            ("weak-k-partition", {"k": 3}, range(2, 9)),
        ],
    )
    def test_predicate_equals_group_stability(self, name, params, ns):
        p = build_protocol(name, **params)
        for n in ns:
            pred = p.stability_predicate(n)
            batch = p.batch_stability_predicate(n)
            graph = explore(Configuration.initial(p, n))
            configs = [graph.nodes[key]["config"] for key in graph.nodes]
            want = [is_group_stable(c) for c in configs]
            assert any(want), n
            assert [bool(pred(c.counts)) for c in configs] == want, n
            matrix = np.stack([c.counts for c in configs])
            assert batch(matrix).tolist() == want, n
