"""Transition-table mutation and the harness self-test.

A conformance harness that has never caught a bug proves nothing, so
this module plants one on purpose: :func:`mutate_protocol` corrupts a
single transition-table entry (the classic example redirects the
paper's rule 5 ``(initial, initial') -> (g_1, m_2)`` to
``(g_1, g_1)``, which silently breaks the Lemma 1 conservation law),
and :func:`self_test` asserts that

1. the pristine protocol sails through a differential run,
2. the differ flags the mutated tables against the pristine oracle, and
3. the invariant pack catches the mutated protocol inside a real
   engine run.

``repro-experiments conform check --self-test`` exits non-zero when any
of these fail — the CI smoke job runs exactly that.
"""

from __future__ import annotations

from ..core.errors import ProtocolError
from ..core.protocol import Protocol
from ..core.transitions import Transition, TransitionTable

__all__ = ["mutate_protocol", "self_test"]


def _canonical_rules(protocol: Protocol) -> list[Transition]:
    """Non-null rules, one per unordered input pair, in table order."""
    seen: set[tuple[str, str]] = set()
    out: list[Transition] = []
    for t in protocol.transitions:
        if t.is_identity or (t.p, t.q) in seen:
            continue
        seen.add((t.p, t.q))
        seen.add((t.q, t.p))
        out.append(t)
    return out


def mutate_protocol(
    protocol: Protocol, rule: int | tuple[str, str] = 0
) -> Protocol:
    """A copy of ``protocol`` with one transition-table entry corrupted.

    ``rule`` selects the target: an index into the canonical non-null
    rule list (mirrors folded, table order) or an ordered input pair of
    state names.  The corruption is deterministic and guaranteed to
    change semantics: the second output is redirected to the first
    output; if the outputs already coincide it is reverted to the
    second *input*; if that also coincides the rule is nulled out.

    The mutated protocol shares the original's state space, group map,
    initial state, initial configuration and stability test (its
    signature, or its predicate when it has none) — only ``delta``
    differs, so any disagreement a checker reports is attributable to
    exactly one table entry.
    """
    table = protocol.transitions
    if isinstance(rule, int):
        canon = _canonical_rules(protocol)
        if not 0 <= rule < len(canon):
            raise ProtocolError(
                f"rule index {rule} out of range; protocol has "
                f"{len(canon)} canonical non-null rules"
            )
        target = canon[rule]
    else:
        p, q = rule
        found = table.lookup(p, q)
        if found is None or found.is_identity:
            raise ProtocolError(
                f"no non-null rule registered for ordered pair ({p!r}, {q!r})"
            )
        target = found

    if target.q2 != target.p2:
        mutated = Transition(target.p, target.q, target.p2, target.p2)
    elif target.q2 != target.q:
        mutated = Transition(target.p, target.q, target.p2, target.q)
    else:
        mutated = Transition(target.p, target.q, target.p, target.q)

    reverse = table.lookup(target.q, target.p)
    mirror_folded = (
        target.p != target.q
        and reverse is not None
        and reverse == target.mirror
    )
    drop = {(target.p, target.q)}
    if mirror_folded:
        drop.add((target.q, target.p))

    new_table = TransitionTable(protocol.space)
    for t in table:
        if (t.p, t.q) in drop:
            continue
        new_table.add(t.p, t.q, t.p2, t.q2, mirror=False)
    if not mutated.is_identity:
        new_table.add(
            mutated.p, mutated.q, mutated.p2, mutated.q2, mirror=mirror_folded
        )

    signed = protocol.has_stability_signature
    return Protocol(
        f"{protocol.name}-mutated",
        protocol.space,
        new_table,
        protocol.initial_state,
        initial_counts_factory=protocol.initial_counts,
        stability_signature_factory=protocol.stability_signature if signed else None,
        stability_predicate_factory=None if signed else protocol.stability_predicate,
        metadata={
            **protocol.metadata,
            "mutation": f"{target} => {mutated}",
        },
    )


def self_test(
    protocol: Protocol | None = None,
    *,
    n: int = 48,
    seed: int = 11,
    max_interactions: int = 100_000,
) -> list[str]:
    """Prove the harness catches a planted table corruption.

    Returns the list of failure descriptions — empty means the harness
    works: the pristine protocol passes differentially, and both the
    differ and the invariant pack flag the mutation.

    With no explicit ``protocol`` the test covers a small default grid,
    one protocol per family that carries its own invariant pack: the
    paper's uniform k-partition (corrupting rule 5 breaks the Lemma 1
    conservation law), the weak-fairness k-partition follow-up, and the
    graph bipartition follow-up (corrupting ``(initial, initial') ->
    (g1, g2)`` into ``(g1, g1)`` breaks the ``#g1 == #g2`` balance
    invariant).
    """
    if protocol is None:
        from ..protocols.registry import build_protocol

        failures: list[str] = []
        for name, params in (
            ("uniform-k-partition", {"k": 3}),
            ("weak-k-partition", {"k": 3}),
            ("graph-bipartition", {}),
        ):
            found = self_test(
                build_protocol(name, **params),
                n=n,
                seed=seed,
                max_interactions=max_interactions,
            )
            failures.extend(f"[{name}] {f}" for f in found)
        return failures

    from ..analysis.invariants import InvariantViolation
    from ..engine.batch import BatchEngine
    from .differ import run_differential
    from .invariants import ConformanceMonitor, invariant_pack
    from .schedule import record_schedule

    # Prefer the symmetry-breaking grouping rule (the paper's rule 5):
    # it is guaranteed to fire early in every execution, and its
    # corruption breaks the Lemma 1 conservation law immediately.
    rule: int | tuple[str, str] = 0
    if protocol.transitions.lookup("initial", "initial'") is not None:
        rule = ("initial", "initial'")
    mutated = mutate_protocol(protocol, rule)

    failures: list[str] = []
    schedule = record_schedule(
        protocol, n, seed=seed, max_interactions=max_interactions
    )

    pristine = run_differential(protocol, schedule=schedule)
    if not pristine.ok:
        failures.append(
            "pristine protocol diverged from its own oracle: "
            + pristine.summary()
        )

    caught = run_differential(
        mutated,
        schedule=schedule,
        reference_protocol=protocol,
        check_invariants=False,
    )
    if caught.ok:
        failures.append(
            f"differ missed the corrupted table entry "
            f"({mutated.metadata['mutation']})"
        )

    monitor = ConformanceMonitor(invariant_pack(protocol, n))
    try:
        BatchEngine().run(
            mutated,
            n,
            seed=seed,
            max_interactions=max_interactions,
            on_effective=monitor,
        )
    except InvariantViolation:
        pass
    else:
        failures.append(
            f"invariant pack missed the corrupted table entry "
            f"({mutated.metadata['mutation']}) over "
            f"{monitor.checks_performed} checked configurations"
        )
    return failures
