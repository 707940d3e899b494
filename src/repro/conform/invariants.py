"""The pluggable invariant pack.

An :class:`Invariant` is a named predicate over live count vectors; a
pack is the list of invariants that apply to one protocol at one
population size, with per-invariant diagnostics.
:class:`ConformanceMonitor` is the one live checker: it attaches a pack
to any engine through the ``on_effective`` hook.

The k-partition invariants come straight from the paper's proof:

* **Lemma 1** — ``#g_x = sum_{p>x} #m_p + sum_{q>=x} #d_q + #g_k`` for
  every ``x``; the conserved quantity behind the correctness proof.
* **staircase** — ``#g_1 >= #g_2 >= ... >= #g_k``; follows from
  Lemma 1 because the right-hand tails shrink as ``x`` grows.
* **cardinality** — ``|M| + |D| <= n // 2``; Lemma 1 at ``x = 1``
  gives ``#g_1 = |M| + |D| + #g_k >= |M| + |D|`` and the population
  must also hold the ``g_1`` agents, so ``2(|M| + |D|) <= n``.
* **stable-signature** (Lemmas 4-6) — whenever the stability predicate
  fires, the configuration must be *the* unique stable signature for
  ``(n, k)`` and the group sizes must match the closed form.

Generic invariants (population conservation, non-negativity, total
output map) apply to every protocol in the registry — including on
restricted interaction graphs, where they hold verbatim.  Lemma 1 is
protocol-specific: the weak-fairness base-station protocol carries an
exact cyclic-assignment staircase instead, and the arbitrary-graph
bipartition carries group balance (#g1 == #g2) plus free-agent parity.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Sequence

import numpy as np

from ..core.errors import InvariantViolation
from ..core.protocol import Protocol
from ..protocols.graph_bipartition import GraphBipartitionProtocol
from ..protocols.kpartition import UniformKPartitionProtocol
from ..protocols.leader_election import LeaderElectionProtocol
from ..protocols.rgeneralized import RGeneralizedPartitionProtocol
from ..protocols.weak_kpartition import WeakKPartitionProtocol

__all__ = [
    "Invariant",
    "invariant_pack",
    "check_counts",
    "ConformanceMonitor",
]

#: ``check(counts) -> None | str``: None means the invariant holds; a
#: string is the violation diagnostic.
CheckFn = Callable[[np.ndarray], "str | None"]


@dataclass(frozen=True, slots=True)
class Invariant:
    """One named runtime invariant over count vectors."""

    name: str
    description: str
    check: CheckFn

    def violation(self, counts: np.ndarray) -> str | None:
        """The diagnostic for ``counts``, or None when the invariant holds."""
        return self.check(counts)


# ----------------------------------------------------------------------
# Generic invariants — every protocol in the registry
# ----------------------------------------------------------------------
def _population_conserved(n: int) -> Invariant:
    def check(counts: np.ndarray) -> str | None:
        total = int(counts.sum())
        if total != n:
            return f"population drifted: sum(counts) = {total}, expected {n}"
        return None

    return Invariant(
        "population-conserved",
        f"sum of per-state counts stays exactly {n}",
        check,
    )


def _non_negative() -> Invariant:
    def check(counts: np.ndarray) -> str | None:
        if (counts < 0).any():
            bad = np.flatnonzero(counts < 0).tolist()
            return f"negative count at state index(es) {bad}"
        return None

    return Invariant(
        "non-negative", "no per-state count ever goes negative", check
    )


def _group_map_total(protocol: Protocol, n: int) -> Invariant:
    def check(counts: np.ndarray) -> str | None:
        sizes = protocol.group_sizes(counts)
        total = int(sizes.sum())
        if total != n:
            return (
                f"output map is not total: group sizes sum to {total}, "
                f"expected {n} (some state maps to no group)"
            )
        return None

    return Invariant(
        "group-map-total",
        "every agent is assigned to exactly one output group",
        check,
    )


# ----------------------------------------------------------------------
# k-partition invariants — the paper's proof obligations
# ----------------------------------------------------------------------
def _lemma1(protocol: UniformKPartitionProtocol) -> Invariant:
    def check(counts: np.ndarray) -> str | None:
        res = protocol.lemma1_residuals(counts)
        if res.any():
            return f"Lemma 1 residuals non-zero: {res.tolist()}"
        return None

    return Invariant(
        "lemma1",
        "#g_x = sum_{p>x} #m_p + sum_{q>=x} #d_q + #g_k for all x (Lemma 1)",
        check,
    )


def _staircase(protocol: UniformKPartitionProtocol) -> Invariant:
    g_idx = list(protocol.g_indices)

    def check(counts: np.ndarray) -> str | None:
        g = counts[g_idx]
        if (np.diff(g) > 0).any():
            return f"group-count staircase broken: #g = {g.tolist()}"
        return None

    return Invariant(
        "staircase",
        "#g_1 >= #g_2 >= ... >= #g_k (implied by Lemma 1)",
        check,
    )


def _cardinality(protocol: UniformKPartitionProtocol, n: int) -> Invariant:
    m_idx = list(protocol.m_indices)
    d_idx = list(protocol.d_indices)
    bound = n // 2

    def check(counts: np.ndarray) -> str | None:
        m_total = int(counts[m_idx].sum()) if m_idx else 0
        d_total = int(counts[d_idx].sum()) if d_idx else 0
        if m_total + d_total > bound:
            return (
                f"|M| + |D| = {m_total} + {d_total} exceeds n//2 = {bound}"
            )
        return None

    return Invariant(
        "cardinality",
        f"|M| + |D| <= n//2 = {bound} (Lemma 1 at x = 1)",
        check,
    )


def _stable_signature(protocol: UniformKPartitionProtocol, n: int) -> Invariant:
    pred = protocol.stability_predicate(n)
    expected = protocol.expected_stable_counts(n)
    exp_sizes = protocol.expected_group_sizes(n)
    i0, i1 = protocol.initial_indices
    space = protocol.space

    def check(counts: np.ndarray) -> str | None:
        if pred is None or not pred(counts):
            return None
        # Stability claimed: the configuration must be the unique
        # signature of Lemmas 4-6 (free agent may sit in either flavour).
        for name, want in expected.items():
            idx = space.index(name)
            have = int(counts[idx])
            if idx in (i0, i1):
                continue  # checked as a sum below
            if have != want:
                return (
                    f"stable claim with #{name} = {have}, signature "
                    f"requires {want} (Lemmas 4-6)"
                )
        free = int(counts[i0] + counts[i1])
        want_free = expected[space.names[i0]] + expected[space.names[i1]]
        if free != want_free:
            return f"stable claim with {free} free agents, expected {want_free}"
        sizes = protocol.group_sizes(counts)
        if (sizes != exp_sizes).any():
            return (
                f"stable claim with group sizes {sizes.tolist()}, "
                f"expected {exp_sizes.tolist()}"
            )
        return None

    return Invariant(
        "stable-signature",
        "a stable configuration is the unique Lemmas 4-6 signature",
        check,
    )


# ----------------------------------------------------------------------
# Leader election — leader survival and monotone leader count
# ----------------------------------------------------------------------
def _leader_survives(protocol: LeaderElectionProtocol) -> Invariant:
    leader = protocol.leader_index

    def check(counts: np.ndarray) -> str | None:
        cur = int(counts[leader])
        if cur < 1:
            return f"leader count dropped to {cur}; at least one must survive"
        return None

    return Invariant(
        "leader-survives", "#L never drops below 1", check
    )


def _leaders_never_increase(protocol: LeaderElectionProtocol) -> Invariant:
    """Stateful: compares successive configurations of *one* execution.

    Only meaningful when the invariant sees every configuration of a
    single run in order (``ConformanceMonitor`` with ``every=1``, or
    the differ's oracle trajectory) — packs built for result-level
    checking must exclude it (``include_stateful=False``).
    """
    leader = protocol.leader_index
    state = {"prev": None}

    def check(counts: np.ndarray) -> str | None:
        cur = int(counts[leader])
        prev = state["prev"]
        state["prev"] = cur
        if prev is not None and cur > prev:
            return f"leader count rose from {prev} to {cur}"
        return None

    return Invariant(
        "leaders-monotone",
        "#L is non-increasing along one execution",
        check,
    )


# ----------------------------------------------------------------------
# Weak-fairness k-partition — base-station conservation laws
# ----------------------------------------------------------------------
def _single_coordinator(protocol: WeakKPartitionProtocol) -> Invariant:
    def check(counts: np.ndarray) -> str | None:
        total = protocol.coordinator_count(counts)
        if total != 1:
            return f"{total} agents in bs_* states; exactly 1 base station exists"
        return None

    return Invariant(
        "single-coordinator",
        "exactly one agent occupies a bs_* state at all times",
        check,
    )


def _assignment_staircase(protocol: WeakKPartitionProtocol) -> Invariant:
    def check(counts: np.ndarray) -> str | None:
        res = protocol.assignment_residuals(counts)
        if res.any():
            return f"cyclic-assignment residuals non-zero: {res.tolist()}"
        return None

    return Invariant(
        "assignment-staircase",
        "#g_x = #g_k + [x <= t-1] for the active bs_t (exact prefix staircase)",
        check,
    )


# ----------------------------------------------------------------------
# Graph bipartition — mobility conservation laws
# ----------------------------------------------------------------------
def _groups_balanced(protocol: GraphBipartitionProtocol) -> Invariant:
    def check(counts: np.ndarray) -> str | None:
        res = protocol.balance_residual(counts)
        if res != 0:
            return f"#g1 - #g2 = {res}; the partner rule mints both together"
        return None

    return Invariant(
        "groups-balanced",
        "#g1 == #g2 at every reachable configuration (graph Lemma 1)",
        check,
    )


def _free_parity(protocol: GraphBipartitionProtocol, n: int) -> Invariant:
    parity = n % 2

    def check(counts: np.ndarray) -> str | None:
        free = protocol.free_count(counts)
        if free % 2 != parity:
            return f"{free} free agents; parity must stay {parity} (n = {n})"
        return None

    return Invariant(
        "free-parity",
        f"number of uncommitted agents keeps parity {parity}",
        check,
    )


# ----------------------------------------------------------------------
# Pack assembly
# ----------------------------------------------------------------------
def invariant_pack(
    protocol: Protocol, n: int, *, include_stateful: bool = True
) -> list[Invariant]:
    """The invariants that apply to ``protocol`` at population size ``n``.

    Every protocol gets population conservation and non-negativity;
    protocols with a group map additionally get the total-output check;
    the paper's k-partition family (including the R-generalized wrapper,
    which delegates to an inner k-partition) gets the full Lemma-1 pack.

    ``include_stateful=False`` drops invariants that compare successive
    configurations of one execution (currently leader monotonicity) —
    required when a pack checks unrelated configurations, e.g. the
    final counts of independent trials.
    """
    pack = [_population_conserved(n), _non_negative()]
    if protocol.num_groups:
        pack.append(_group_map_total(protocol, n))
    kp: UniformKPartitionProtocol | None = None
    if isinstance(protocol, UniformKPartitionProtocol):
        kp = protocol
    elif isinstance(protocol, RGeneralizedPartitionProtocol):
        kp = protocol.inner
    if kp is not None:
        pack.append(_lemma1(kp))
        pack.append(_staircase(kp))
        pack.append(_cardinality(kp, n))
        pack.append(_stable_signature(kp, n))
    if isinstance(protocol, WeakKPartitionProtocol):
        pack.append(_single_coordinator(protocol))
        pack.append(_assignment_staircase(protocol))
    if isinstance(protocol, GraphBipartitionProtocol):
        pack.append(_groups_balanced(protocol))
        pack.append(_free_parity(protocol, n))
    if isinstance(protocol, LeaderElectionProtocol):
        pack.append(_leader_survives(protocol))
        if include_stateful:
            pack.append(_leaders_never_increase(protocol))
    return pack


def check_counts(
    pack: Sequence[Invariant], counts: Sequence[int] | np.ndarray
) -> list[str]:
    """Evaluate every invariant once; returns the violation diagnostics."""
    vec = np.asarray(counts, dtype=np.int64)
    out = []
    for inv in pack:
        try:
            msg = inv.violation(vec)
        except Exception as exc:  # noqa: BLE001 — a crashing check IS a finding
            msg = f"check raised {type(exc).__name__}: {exc}"
        if msg is not None:
            out.append(f"{inv.name}: {msg}")
    return out


class ConformanceMonitor:
    """``on_effective`` callback enforcing a whole invariant pack.

    Every invariant in the pack is evaluated every ``every``-th
    effective interaction; the initial configuration is checked through
    the ``prime`` hook and the terminal configuration through
    ``finalize`` (so a violation in the configuration a run starts or
    ends in is never missed, whatever the stride).  A custom check is a
    one-element pack: ``ConformanceMonitor([Invariant(name, text, fn)])``.

    Raises :class:`~repro.core.errors.InvariantViolation` naming the
    failing invariant(s).
    """

    def __init__(self, pack: Sequence[Invariant], *, every: int = 1) -> None:
        if every < 1:
            raise ValueError(f"'every' must be positive, got {every}")
        if not pack:
            raise ValueError("conformance monitor needs at least one invariant")
        self._pack = list(pack)
        self._every = every
        self._calls = 0
        #: Number of configurations actually evaluated (all invariants).
        self.checks_performed = 0

    @property
    def pack(self) -> list[Invariant]:
        return list(self._pack)

    def __call__(self, interactions: int, counts: Sequence[int]) -> None:
        self._calls += 1
        if self._calls % self._every:
            return
        self._evaluate(interactions, counts)

    def prime(self, interactions: int, counts: Sequence[int]) -> None:
        """Engine start-of-run hook: check the initial configuration."""
        self._evaluate(interactions, counts)

    def finalize(self, interactions: int, counts: Sequence[int]) -> None:
        """Engine end-of-run hook: always check the terminal configuration."""
        if self._calls and self._calls % self._every == 0:
            return  # the last __call__ already evaluated this configuration
        self._evaluate(interactions, counts)

    def _evaluate(self, interactions: int, counts: Sequence[int]) -> None:
        self.checks_performed += 1
        problems = check_counts(self._pack, counts)
        if problems:
            raise InvariantViolation(
                f"{len(problems)} invariant(s) violated after "
                f"{interactions} interactions: " + "; ".join(problems),
                interactions,
                list(counts),
            )
