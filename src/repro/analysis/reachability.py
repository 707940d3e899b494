"""Explicit-state model checking of protocol correctness.

Global fairness has a crisp finite-state consequence: an infinite
globally fair execution visits some configuration infinitely often, and
from any such configuration every *reachable* configuration is also
visited infinitely often.  Hence a protocol with designated initial
states solves a stabilization problem under global fairness **iff** on
the (finite) reachable configuration graph:

1.  from every reachable configuration a *stable* configuration is
    reachable, and
2.  stable configurations satisfy the problem's output condition and
    never leave the stable set.

This module builds the reachable configuration graph in the count
quotient (agents are anonymous; the quotient is sound and complete for
these properties) and checks exactly that, giving machine-checked
correctness certificates for small ``(n, k)`` — the strongest evidence
short of re-proving Theorem 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable
from typing import TYPE_CHECKING

from ..core.configuration import Configuration
from ..core.errors import SimulationError
from .stability import groups_frozen_under_transitions, is_uniform_partition

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["ReachabilityReport", "explore", "verify_stabilization", "verify_kpartition"]


@dataclass(slots=True)
class ReachabilityReport:
    """Result of exhaustively checking one initial configuration."""

    protocol: str
    n: int
    #: Number of reachable configurations (count quotient).
    reachable: int
    #: Number of reachable stable configurations.
    stable: int
    #: True when every reachable configuration can reach a stable one.
    always_recoverable: bool
    #: True when the stable set is closed (no escape) and every stable
    #: configuration satisfies the output condition.
    stable_set_valid: bool
    #: Configurations from which no stable configuration is reachable
    #: (empty when the protocol is correct).
    counterexamples: list[dict[str, int]]

    @property
    def correct(self) -> bool:
        """The protocol solves the problem under global fairness."""
        return self.always_recoverable and self.stable_set_valid and self.stable > 0


def explore(
    initial: Configuration,
    *,
    max_configs: int = 500_000,
) -> nx.DiGraph:
    """Build the reachable configuration graph from ``initial``.

    Nodes are configuration keys (count tuples); each node stores its
    :class:`Configuration` under the ``"config"`` attribute.  Edges are
    state-changing transitions (null self-loops are irrelevant to both
    reachability and stability and are omitted).
    """
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_node(initial.key, config=initial)
    frontier = [initial]
    while frontier:
        current = frontier.pop()
        for succ in current.successors():
            if succ.key not in graph:
                if graph.number_of_nodes() >= max_configs:
                    raise MemoryError(
                        f"reachable set exceeded {max_configs} configurations"
                    )
                graph.add_node(succ.key, config=succ)
                frontier.append(succ)
            graph.add_edge(current.key, succ.key)
    return graph


def verify_stabilization(
    initial: Configuration,
    is_stable: Callable[[Configuration], bool],
    output_ok: Callable[[Configuration], bool],
    *,
    max_configs: int = 500_000,
) -> ReachabilityReport:
    """Model-check a stabilization property under global fairness.

    Parameters
    ----------
    initial:
        The designated initial configuration.
    is_stable:
        Identifies stable configurations (e.g. the closed-form
        signature).  Closure of the stable set is verified, not
        assumed.
    output_ok:
        The output condition stable configurations must satisfy.
    """
    import networkx as nx

    graph = explore(initial, max_configs=max_configs)
    stable_keys = {
        key for key, data in graph.nodes(data=True) if is_stable(data["config"])
    }

    # (2) stable set validity: output condition + closure + group freeze.
    stable_set_valid = True
    for key in stable_keys:
        config = graph.nodes[key]["config"]
        if not output_ok(config):
            stable_set_valid = False
            break
        if not groups_frozen_under_transitions(config):
            stable_set_valid = False
            break
        if any(succ not in stable_keys for succ in graph.successors(key)):
            stable_set_valid = False
            break

    # (1) every configuration can reach a stable one: walk the reverse
    # graph from the stable set.
    reverse = graph.reverse(copy=False)
    recoverable: set = set()
    for key in stable_keys:
        if key not in recoverable:
            recoverable.add(key)
            recoverable.update(nx.descendants(reverse, key))
    counterexample_keys = [k for k in graph.nodes if k not in recoverable]

    return ReachabilityReport(
        protocol=initial.protocol.name,
        n=initial.n,
        reachable=graph.number_of_nodes(),
        stable=len(stable_keys),
        always_recoverable=not counterexample_keys,
        stable_set_valid=stable_set_valid,
        counterexamples=[
            graph.nodes[k]["config"].as_dict() for k in counterexample_keys[:10]
        ],
    )


def verify_kpartition(protocol, n: int, *, max_configs: int = 500_000) -> ReachabilityReport:
    """Model-check Theorem 1 for one ``(n, k)`` instance.

    Verifies that from every reachable configuration the Lemma-6
    signature is reachable, that the signature is closed under
    transitions with frozen groups, and that its partition is uniform.
    """
    if n < 3:
        raise SimulationError(
            "the paper assumes n >= 3 (two agents cannot break symmetry)"
        )
    initial = Configuration.initial(protocol, n)
    pred = protocol.stability_predicate(n)
    if pred is None:
        raise SimulationError("protocol lacks a stability predicate")

    return verify_stabilization(
        initial,
        is_stable=lambda c: pred(c.counts),
        output_ok=lambda c: is_uniform_partition(c.group_sizes()),
        max_configs=max_configs,
    )
