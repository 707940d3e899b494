"""The :class:`Protocol` object — a population protocol ``P = (Q, delta)``.

A protocol bundles a :class:`~repro.core.state.StateSpace`, a
:class:`~repro.core.transitions.TransitionTable`, a designated initial
state (the paper assumes designated initial states throughout), and the
group map ``f`` used to read off the output partition.

Protocols are *behaviour descriptions*; they hold no mutable simulation
state.  Engines consume a protocol through its compiled form (see
:mod:`repro.core.compiler`).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .compiler import CompiledProtocol, compile_protocol
from .errors import AsymmetricTransitionError, ProtocolError
from .state import StateSpace
from .transitions import Transition, TransitionTable

__all__ = ["Protocol", "StabilitySignature"]

# A stability predicate receives the vector of per-state agent counts and
# decides whether the configuration is stable in the sense of Section 2.2
# (the group of every agent can never change again).
StabilityPredicate = Callable[[np.ndarray], bool]

# A batched stability predicate receives a (B, S) matrix of B count
# vectors and returns a boolean vector of length B — the vectorized
# form the ensemble engine evaluates once per jump-chain step.
BatchStabilityPredicate = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class StabilitySignature:
    """Stability as a conjunction of count-sum equality constraints.

    ``groups`` is a tuple of ``(state_indices, expected)`` pairs; a
    configuration is stable iff, for every pair, the counts at
    ``state_indices`` sum to ``expected``.  This is the one stability
    test a protocol writes: :meth:`predicate` and :meth:`batch` derive
    the scalar and vectorized Python forms from it, and the compiled
    kernels (see :mod:`repro.engine.kernels`) evaluate its flattened
    :meth:`arrays` with exactly the same result.

    Group order matters only for speed, never for the result — every
    form tests the leading constraint first and stops at the first
    violated one, so protocols should lead with their cheapest
    near-always-rejecting single-state constraint (the k-partition
    protocol leads with ``#g_k == floor(n/k)``).
    """

    groups: tuple[tuple[tuple[int, ...], int], ...]

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flatten to ``(offsets, indices, expected)`` int64 arrays.

        ``indices[offsets[g]:offsets[g+1]]`` are the state indices of
        constraint ``g`` and ``expected[g]`` its required sum — the CSR
        layout the kernels consume.
        """
        offsets = np.zeros(len(self.groups) + 1, dtype=np.int64)
        idx: list[int] = []
        want: list[int] = []
        for g, (states, expected) in enumerate(self.groups):
            idx.extend(states)
            want.append(expected)
            offsets[g + 1] = len(idx)
        return (
            offsets,
            np.asarray(idx, dtype=np.int64),
            np.asarray(want, dtype=np.int64),
        )

    def evaluate(self, counts: Sequence[int] | np.ndarray) -> bool:
        """Reference evaluation (what the kernels compute natively)."""
        for states, expected in self.groups:
            if sum(int(counts[i]) for i in states) != expected:
                return False
        return True

    def _parts(self) -> tuple[int, int, tuple, tuple] | None:
        """``(lead, lead_want, singles, sums)`` for a single-state lead.

        ``singles`` holds the other single-state constraints as
        ``(index, expected)`` pairs and ``sums`` the multi-state ones,
        both in signature order.  None when the signature is empty or
        leads with a multi-state constraint.
        """
        if not self.groups or len(self.groups[0][0]) != 1:
            return None
        ((lead,), lead_want), *rest = self.groups
        singles = tuple((s[0], w) for s, w in rest if len(s) == 1)
        sums = tuple((s, w) for s, w in rest if len(s) != 1)
        return lead, lead_want, singles, sums

    def predicate(self) -> StabilityPredicate:
        """The scalar test over one count vector, specialised once.

        The leading constraint is one comparison; the other single-state
        constraints compare one count each, then multi-state ones sum.
        A signature without a single-state lead gets :meth:`evaluate`.
        """
        parts = self._parts()
        if parts is None:
            return self.evaluate
        lead, lead_want, singles, sums = parts

        def stable(counts: Sequence[int] | np.ndarray) -> bool:
            if counts[lead] != lead_want:
                return False
            for i, want in singles:
                if counts[i] != want:
                    return False
            for states, want in sums:
                # map, not a generator expression: capturing ``counts``
                # in a closure would cost every call, even a reject.
                if sum(map(counts.__getitem__, states)) != want:
                    return False
            return True

        return stable

    def batch(self) -> BatchStabilityPredicate:
        """The vectorized test over a ``(B, S)`` count matrix.

        Tests the leading constraint on all rows; on the rows that pass,
        checks every other single-state constraint in one fused
        comparison, then any multi-state sums.
        """
        parts = self._parts()
        if parts is None:
            return _rowwise(self.evaluate)
        lead, lead_want, singles, sums = parts
        single_idx = np.array([i for i, _ in singles], dtype=np.intp)
        single_want = np.array([w for _, w in singles], dtype=np.int64)

        def stable(count_matrix: np.ndarray) -> np.ndarray:
            count_matrix = np.asarray(count_matrix)
            ok = count_matrix[:, lead] == lead_want
            if not ok.any():
                return ok
            cand = np.flatnonzero(ok)
            sub = count_matrix[cand]
            good = (sub[:, single_idx] == single_want).all(axis=1)
            for states, want in sums:
                good &= sum(sub[:, i] for i in states) == want
            ok[cand] = good
            return ok

        return stable


def _rowwise(pred: StabilityPredicate) -> BatchStabilityPredicate:
    """Vectorized form of a scalar predicate, evaluated row by row."""

    def batched(count_matrix: np.ndarray) -> np.ndarray:
        return np.fromiter(
            (pred(row) for row in count_matrix),
            dtype=bool,
            count=len(count_matrix),
        )

    return batched


class Protocol:
    """A deterministic population protocol with designated initial states.

    Parameters
    ----------
    name:
        Human-readable protocol name (used in reports and registries).
    space:
        The state space ``Q`` including its group map ``f``.
    transitions:
        The transition table ``delta``.
    initial_state:
        The designated initial state ``s0``; every agent starts here
        unless an explicit initial configuration is supplied to an engine.
    initial_counts_factory:
        Optional factory ``n -> count_vector`` producing the designated
        initial configuration for populations of size ``n``.  Protocols
        whose model distinguishes agents at start — e.g. the weak-fairness
        base-station construction, where exactly one agent begins as the
        coordinator — supply it; :meth:`initial_counts` then delegates to
        the factory instead of placing all ``n`` agents in
        ``initial_state``.  The factory must return a non-negative vector
        of length ``num_states`` summing to ``n``.
    stability_signature_factory:
        Optional factory ``n -> StabilitySignature`` giving the exact
        stability test for populations of size ``n`` (Section 2.2: the
        group of every agent can never change again) as count-sum
        equalities.  It is the protocol's one stability test:
        :meth:`stability_predicate` and :meth:`batch_stability_predicate`
        derive the scalar and vectorized forms from it, and the compiled
        kernels (``count``, ``batch`` and ``graph`` and their ``-jit``
        names) evaluate it natively.  Protocols whose stable
        configurations are *silent* can omit every stability factory —
        engines then fall back to silence detection (no applicable
        non-null pair).  The k-partition protocol needs a signature
        because its stable configuration for ``n mod k == 1`` still
        admits group-preserving ``initial <-> initial'`` flips (rule 4)
        and is therefore stable but not silent.
    stability_predicate_factory:
        Optional factory ``n -> predicate(counts) -> bool``, for tests
        that count-sum equalities cannot express (``<=`` bounds,
        marginals of composed protocols).  The vectorized form then
        evaluates it row by row, and the kernel tiers fall back to the
        Python loops.  Passing both factories raises
        :class:`~repro.core.errors.ProtocolError`.
    metadata:
        Free-form information (e.g. ``{"k": 5, "paper": "..."}``).
    """

    def __init__(
        self,
        name: str,
        space: StateSpace,
        transitions: TransitionTable,
        initial_state: str | None,
        *,
        initial_counts_factory: Callable[[int], np.ndarray] | None = None,
        stability_signature_factory: (
            Callable[[int], StabilitySignature] | None
        ) = None,
        stability_predicate_factory: Callable[[int], StabilityPredicate] | None = None,
        metadata: Mapping[str, object] | None = None,
        require_symmetric: bool = False,
    ) -> None:
        """See class docstring; additionally ``require_symmetric=True``
        makes construction fail with
        :class:`~repro.core.errors.AsymmetricTransitionError` if any rule
        breaks symmetry — protocols that *claim* symmetry (like the
        paper's Algorithm 1) assert it at build time this way."""
        if transitions.space is not space:
            raise ProtocolError("transition table is defined over a different state space")
        if initial_state is not None and initial_state not in space:
            raise ProtocolError(f"initial state {initial_state!r} is not in the state space")
        if stability_signature_factory and stability_predicate_factory:
            raise ProtocolError(
                f"protocol {name!r} takes a stability signature or a "
                "stability predicate, not both"
            )
        transitions.validate()
        if require_symmetric:
            offenders = transitions.asymmetric_rules()
            if offenders:
                listing = "; ".join(str(t) for t in offenders[:5])
                raise AsymmetricTransitionError(
                    f"protocol {name!r} declared symmetric but has "
                    f"{len(offenders)} asymmetric rule(s): {listing}"
                )
        self._name = name
        self._space = space
        self._transitions = transitions
        self._initial_state = initial_state
        self._initial_counts_factory = initial_counts_factory
        self._stability_factory = stability_predicate_factory
        self._signature_factory = stability_signature_factory
        self._metadata = dict(metadata or {})

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def space(self) -> StateSpace:
        return self._space

    @property
    def states(self) -> tuple[str, ...]:
        """State names — ``Q`` in the paper's notation."""
        return self._space.names

    @property
    def num_states(self) -> int:
        """``|Q|`` — the space complexity the paper optimizes (3k-2)."""
        return len(self._space)

    @property
    def num_groups(self) -> int:
        """``k`` — the number of output groups."""
        return self._space.num_groups

    @property
    def transitions(self) -> TransitionTable:
        return self._transitions

    @property
    def initial_state(self) -> str | None:
        return self._initial_state

    @property
    def metadata(self) -> dict[str, object]:
        return dict(self._metadata)

    @property
    def is_symmetric(self) -> bool:
        """Whether the protocol is symmetric (paper Sec. 2.1)."""
        return self._transitions.is_symmetric

    def rules(self) -> list[Transition]:
        """All registered (ordered) rules."""
        return list(self._transitions)

    # ------------------------------------------------------------------
    # Compiled form
    # ------------------------------------------------------------------
    @cached_property
    def compiled(self) -> CompiledProtocol:
        """Packed NumPy tables for the fast engines (cached)."""
        return compile_protocol(self)

    # ------------------------------------------------------------------
    # Semantics helpers
    # ------------------------------------------------------------------
    def initial_counts(self, n: int) -> np.ndarray:
        """Count vector of the designated initial configuration ``C0``."""
        if n < 1:
            raise ProtocolError(f"population size must be positive, got {n}")
        if self._initial_counts_factory is not None:
            counts = np.asarray(self._initial_counts_factory(n), dtype=np.int64)
            if counts.shape != (self.num_states,):
                raise ProtocolError(
                    f"initial_counts_factory of {self._name!r} returned shape "
                    f"{counts.shape}, expected ({self.num_states},)"
                )
            if (counts < 0).any() or int(counts.sum()) != n:
                raise ProtocolError(
                    f"initial_counts_factory of {self._name!r} returned an "
                    f"invalid configuration for n = {n}"
                )
            return counts
        if self._initial_state is None:
            raise ProtocolError(
                f"protocol {self._name!r} has no designated initial state; "
                "supply an explicit initial configuration"
            )
        counts = np.zeros(self.num_states, dtype=np.int64)
        counts[self._space.index(self._initial_state)] = n
        return counts

    @property
    def has_stability_signature(self) -> bool:
        """Whether stability is declared as a :class:`StabilitySignature`."""
        return self._signature_factory is not None

    def stability_signature(self, n: int) -> StabilitySignature | None:
        """Declarative count-sum form of the stability test (or None).

        ``None`` means the protocol has no signature — either it has no
        stability test at all (silence is then the criterion, which
        kernels handle natively) or its predicate cannot be expressed
        as count-sum equalities (kernel tiers then fall back to the
        Python loop).
        """
        if self._signature_factory is None:
            return None
        return self._signature_factory(n)

    def stability_predicate(self, n: int) -> StabilityPredicate | None:
        """Exact stability test for population size ``n`` (or None).

        Derived from the signature when the protocol has one.
        """
        if self._signature_factory is not None:
            return self._signature_factory(n).predicate()
        if self._stability_factory is None:
            return None
        return self._stability_factory(n)

    def batch_stability_predicate(self, n: int) -> BatchStabilityPredicate | None:
        """Vectorized stability test over ``(B, S)`` count matrices.

        Derived from the signature when the protocol has one; protocols
        with only a predicate get a row-wise wrapper; protocols with
        neither return None (engines then fall back to silence
        detection).
        """
        if self._signature_factory is not None:
            return self._signature_factory(n).batch()
        pred = self.stability_predicate(n)
        return None if pred is None else _rowwise(pred)

    def group_sizes(self, counts: Sequence[int] | np.ndarray) -> np.ndarray:
        """Per-group agent totals under the group map ``f``.

        Returns a vector ``sizes`` of length ``k`` with
        ``sizes[i-1] = |{agents a : f(s(a)) = i}|``.
        """
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (self.num_states,):
            raise ProtocolError(
                f"counts vector has shape {counts.shape}, expected ({self.num_states},)"
            )
        k = self.num_groups
        if k == 0:
            raise ProtocolError(f"protocol {self._name!r} has no group map")
        sizes = np.zeros(k, dtype=np.int64)
        np.add.at(sizes, self._space.group_array - 1, counts)
        return sizes

    def describe(self) -> str:
        """Human-readable protocol summary: states, groups, and rules.

        Rules are listed once per unordered pair (mirrors folded), in
        the paper's notation ``(p, q) -> (p', q')``.
        """
        lines = [
            f"protocol {self._name}",
            f"  states ({self.num_states}): {', '.join(self.states)}",
        ]
        if self._initial_state is not None:
            lines.append(f"  designated initial state: {self._initial_state}")
        if self.num_groups:
            by_group: dict[int, list[str]] = {}
            for name in self.states:
                by_group.setdefault(self._space.group_of(name), []).append(name)
            lines.append(f"  groups ({self.num_groups}):")
            for g in sorted(by_group):
                lines.append(f"    f = {g}: {', '.join(by_group[g])}")
        lines.append(
            f"  transitions ({'symmetric' if self.is_symmetric else 'asymmetric'}):"
        )
        seen: set[frozenset[str]] = set()
        for t in self._transitions:
            key = frozenset((t.p, t.q)) if t.p != t.q else frozenset((t.p,))
            if key in seen:
                continue
            seen.add(key)
            lines.append(f"    {t}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        sym = "symmetric" if self.is_symmetric else "asymmetric"
        return (
            f"Protocol({self._name!r}, {self.num_states} states, "
            f"{self.num_groups} groups, {sym})"
        )
