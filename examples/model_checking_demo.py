#!/usr/bin/env python
"""Machine-checked Theorem 1: exhaustive verification for small (n, k).

Global fairness has a finite-state characterization: the protocol is
correct iff, on the reachable configuration graph, (1) every
configuration can still reach a stable one and (2) the stable set is
closed with frozen group assignments.  This demo builds those graphs
and verifies the theorem instance by instance — and then shows the
checker *catching* a deliberately broken protocol.

Run:  python examples/model_checking_demo.py
"""

from __future__ import annotations

from repro import Configuration, uniform_k_partition
from repro.analysis import explore, verify_kpartition, verify_stabilization
from repro.core import Protocol, StateSpace, TransitionTable


def broken_partition_protocol():
    """Algorithm 1 for k = 3 with rule 8 removed.

    Without the (m_i, m_j) -> (d_{i-1}, d_{j-1}) collision rule, two
    concurrent chains can deadlock: with all agents locked in G/M
    states and no free agents left, no rule applies, but the partition
    is not uniform.  The model checker must find the counterexample.
    """
    good = uniform_k_partition(3)
    space = StateSpace(good.space.names, groups={
        name: good.space.group_of(name) for name in good.space.names
    }, num_groups=3)
    table = TransitionTable(space)
    for t in good.transitions:
        if t.p.startswith("m") and t.q.startswith("m"):
            continue  # drop rule 8
        table.add(t.p, t.q, t.p2, t.q2, mirror=False)
    return Protocol(
        "broken-3-partition (no rule 8)",
        space,
        table,
        "initial",
        stability_signature_factory=good.stability_signature,
    )


def main() -> None:
    print("=== Theorem 1, machine-checked on small instances ===\n")
    for k in (2, 3, 4):
        protocol = uniform_k_partition(k)
        for n in range(3, 9):
            report = verify_kpartition(protocol, n)
            status = "OK " if report.correct else "FAIL"
            print(
                f"  [{status}] k={k} n={n}: {report.reachable:5d} reachable "
                f"configurations, {report.stable} stable"
            )
            assert report.correct

    print("\n=== Reachable-set sizes (the verification state space) ===\n")
    protocol = uniform_k_partition(3)
    for n in (4, 6, 8, 10, 12):
        graph = explore(Configuration.initial(protocol, n))
        print(f"  k=3 n={n:2d}: {graph.number_of_nodes():6d} configurations, "
              f"{graph.number_of_edges():6d} transitions")

    print("\n=== Negative control: rule 8 removed ===\n")
    broken = broken_partition_protocol()
    pred = broken.stability_predicate(6)
    report = verify_stabilization(
        Configuration.initial(broken, 6),
        is_stable=lambda c: pred(c.counts),
        output_ok=lambda c: True,
    )
    print(f"  correct: {report.correct}")
    print(f"  every config can recover: {report.always_recoverable}")
    if report.counterexamples:
        print(f"  example stuck configuration: {report.counterexamples[0]}")
    assert not report.correct, "the checker must reject the broken protocol"
    print("\nThe model checker correctly rejects the protocol without rule 8.")


if __name__ == "__main__":
    main()
