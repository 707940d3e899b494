"""Exact expected stabilization times by first-step analysis.

The paper measures time complexity by simulation and leaves its exact
characterization as an open question ("What is the time complexity of
the uniform k-partition problem under probabilistic fairness?").  For
small instances we can answer *exactly*: under the uniform scheduler
the configuration process is a finite Markov chain on count vectors,
and the expected number of interactions to reach a stable
configuration solves a linear system.

From a non-stable configuration ``C`` with ``T = n(n-1)`` ordered
pairs and active weight ``W(C)`` (ordered-pair class weights):

* the next *effective* interaction arrives after a geometric number of
  interactions with mean ``T / W(C)``, and
* it applies class ``r`` with probability ``w_r(C) / W(C)``.

Hence the expected interactions-to-stability ``E[C]`` satisfies::

    E[C] = T / W(C) + sum_r  (w_r(C) / W(C)) * E[C_r]     (C not stable)
    E[C] = 0                                              (C stable)

This module builds the reachable configuration graph, assembles the
sparse system, and solves it.  The result validates the simulation
engines *quantitatively*: ``tests/analysis/test_exact.py`` checks that
the trial means of all three engines match these closed-form values
within statistical error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.configuration import Configuration
from ..core.errors import SimulationError
from ..core.protocol import Protocol
from .reachability import explore

__all__ = ["ExactExpectation", "expected_interactions_exact"]


@dataclass(slots=True)
class ExactExpectation:
    """Exact stabilization-time moments for one protocol instance."""

    protocol: str
    n: int
    #: Number of reachable configurations.
    reachable: int
    #: Expected interactions from the designated initial configuration.
    from_initial: float
    #: Expected interactions from every reachable configuration.
    per_configuration: dict[tuple[int, ...], float]
    #: Exact variance from the initial configuration (None unless the
    #: second-moment system was solved; see ``with_variance=True``).
    variance_from_initial: float | None = None

    @property
    def std_from_initial(self) -> float | None:
        """Exact standard deviation from the initial configuration."""
        if self.variance_from_initial is None:
            return None
        return float(np.sqrt(max(self.variance_from_initial, 0.0)))

    def expectation_of(self, config: Configuration) -> float:
        """E[interactions to stability] from a given configuration."""
        try:
            return self.per_configuration[config.key]
        except KeyError:
            raise SimulationError(
                "configuration is not reachable from the designated initial state"
            ) from None


def expected_interactions_exact(
    protocol: Protocol,
    n: int,
    *,
    max_configs: int = 200_000,
    with_variance: bool = False,
) -> ExactExpectation:
    """Solve the first-step equations for the expected interaction count.

    Requires the protocol to provide a stability predicate (all the
    partition protocols do) or stable-silent semantics, and every
    reachable configuration to reach stability (guaranteed for correct
    protocols; a singular system otherwise raises).

    With ``with_variance=True`` the second-moment system is solved as
    well (same matrix, new right-hand side): writing the time from a
    non-stable ``C`` as ``T_C = G + T'`` with ``G`` geometric
    (mean ``1/p``, second moment ``(2 - p)/p^2`` for ``p = W/T``)
    independent of the successor choice,

        E[T_C^2] = E[G^2] + 2 E[G] * sum_r P_r E[T_{C_r}]
                          + sum_r P_r E[T_{C_r}^2]

    which yields the exact variance of the stabilization time.

    Exponential in the worst case — intended for small populations.
    """
    from scipy.sparse import lil_matrix
    from scipy.sparse.linalg import spsolve

    initial = Configuration.initial(protocol, n)
    pred = protocol.stability_predicate(n)

    def is_stable(config: Configuration) -> bool:
        if pred is not None:
            return bool(pred(config.counts))
        return config.is_silent()

    graph = explore(initial, max_configs=max_configs)
    keys = list(graph.nodes)
    index = {key: i for i, key in enumerate(keys)}
    m = len(keys)
    T = n * (n - 1)  # ordered distinct pairs, matching the class weights

    compiled = protocol.compiled
    A = lil_matrix((m, m))
    b = np.zeros(m)
    # Per-row data needed again for the second-moment RHS.
    row_p = np.zeros(m)          # success probability W/T (0 for stable)
    row_succ: list[list[tuple[int, float]]] = [[] for _ in range(m)]
    for key, i in index.items():
        config = graph.nodes[key]["config"]
        A[i, i] = 1.0
        if is_stable(config):
            continue  # E = 0: absorbing for the stopped process
        weights = []
        total = 0
        for cls in compiled.classes:
            w = cls.weight(config.counts)
            if w > 0:
                weights.append((cls, w))
                total += w
        if total == 0:
            raise SimulationError(
                f"configuration {config.as_dict()} is silent but not stable; "
                "the expectation diverges"
            )
        b[i] = T / total
        row_p[i] = total / T
        for cls, w in weights:
            succ = config.apply_class(cls)
            j = index[succ.key]
            A[i, j] -= w / total
            row_succ[i].append((j, w / total))

    A_csr = A.tocsr()
    first = spsolve(A_csr, b)
    per_config = {key: float(first[i]) for key, i in index.items()}

    variance = None
    if with_variance:
        b2 = np.zeros(m)
        for i in range(m):
            p = row_p[i]
            if p == 0.0:
                continue  # stable: E[T^2] = 0
            e_succ = sum(pr * first[j] for j, pr in row_succ[i])
            b2[i] = (2.0 - p) / (p * p) + 2.0 * (1.0 / p) * e_succ
        second = spsolve(A_csr, b2)
        i0 = index[initial.key]
        variance = float(second[i0] - first[i0] ** 2)

    return ExactExpectation(
        protocol=protocol.name,
        n=n,
        reachable=m,
        from_initial=per_config[initial.key],
        per_configuration=per_config,
        variance_from_initial=variance,
    )
