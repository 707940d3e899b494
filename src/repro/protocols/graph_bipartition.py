"""Uniform bipartition on *arbitrary* connected interaction graphs.

The source paper (and the 4-state protocol of [25] it builds on) assume
the complete interaction graph: any two agents may meet.  The follow-up
work (arXiv:2011.08366, same group) drops that assumption — the
scheduler may only pick edges of an arbitrary connected graph.  The
static 4-state protocol breaks immediately there: on a star graph two
``initial`` leaves are never adjacent, so the partner-commit rule
``(initial, initial') -> (g1, g2)`` can starve with two free agents
parked on non-adjacent leaves forever (a genuine deadlock, not just
slowness — ``tests/protocols/test_graph_bipartition.py`` pins it).

The repair implemented here is *token mobility*, the standard device in
the arbitrary-graph literature: committed agents let free "tokens" pass
through them, so any two frees eventually become adjacent along a path
of committed agents.  When a committed agent meets a free one, the pair
**swaps positions** (the committed state moves across the edge); a hop
through a ``g1`` *resets* the token's flavour to ``initial'`` whatever
it was, while a hop through a ``g2`` preserves it::

    (initial , initial )  -> (initial', initial')
    (initial', initial')  -> (initial , initial )
    (initial , initial')  -> (g1, g2)
    (g1, f)               -> (initial', g1)   f in {initial, initial'}
    (g2, f)               -> (f, g2)

The flavour treatment along a hop is the load-bearing design choice,
and it must be **many-to-one**.  Any *invertible* per-hop flavour map
(always flip, never flip, or flip through exactly one committed state)
admits a conserved mod-2 quantity on trees and bipartite graphs —
e.g. with flip-on-every-hop, ``(side + flavour)`` per token is
conserved on a bipartite graph, and with flip-through-``g1`` only,
``(flavour + #g1 on the token's side of the edge)`` is conserved on a
tree — and the partner-commit rule is only enabled in one parity
class, so half the reachable configurations can never finish (both
variants demonstrably livelock on stars and paths).  The reset rule is
not invertible, so no such parity exists; exhaustive position-level
model checking over paths, stars, cycles, random trees and lollipop
graphs confirms that from *every* reachable configuration a stable one
stays reachable, which is exactly what global fairness converts into
convergence.  ``tests/protocols/test_graph_bipartition.py`` pins the
previously-deadlocking scenarios.

All rules are symmetric (mirror-closed).  Every rule conserves
``#g1 - #g2`` (the partner rule mints one of each; the swap rules move
a committed state without changing it), so the two groups are balanced
at *every* reachable configuration — the graph analogue of the paper's
Lemma 1, and the invariant the conformance pack checks.  Free parity
is likewise conserved, so exactly ``n mod 2`` free agents remain at
stabilization.

Under global fairness on any connected graph the protocol stabilizes:
while two frees exist somewhere, there is a reachable configuration in
which they are adjacent (swap one along a path), where the partner rule
fires and permanently retires both.  For odd ``n`` the leftover free
keeps hopping — the terminal configurations are *stable but not
silent*, exactly like the source paper's protocols, which is why the
stability signature below (not silence) is the convergence test.  For
``n = 2`` the flavour-toggle livelock of the complete-graph protocol is
inherited unchanged.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.errors import ProtocolError
from ..core.protocol import Protocol, StabilitySignature
from ..core.state import StateSpace
from ..core.transitions import TransitionTable
from .kpartition import INITIAL, INITIAL_PRIME

__all__ = ["GraphBipartitionProtocol", "graph_bipartition"]


class GraphBipartitionProtocol(Protocol):
    """4-state uniform bipartition with token mobility for arbitrary graphs."""

    def __init__(self) -> None:
        names = [INITIAL, INITIAL_PRIME, "g1", "g2"]
        groups = {INITIAL: 1, INITIAL_PRIME: 1, "g1": 1, "g2": 2}
        space = StateSpace(names, groups=groups, num_groups=2)
        table = TransitionTable(space)

        table.add(INITIAL, INITIAL, INITIAL_PRIME, INITIAL_PRIME)
        table.add(INITIAL_PRIME, INITIAL_PRIME, INITIAL, INITIAL)
        table.add(INITIAL, INITIAL_PRIME, "g1", "g2")
        # Mobility: the committed state crosses the edge and the free
        # token takes its place.  A g1-hop RESETS the token's flavour to
        # initial' whatever it was; a g2-hop preserves it.  The g1 rule
        # must be many-to-one — any invertible flavour map admits a
        # conserved parity that deadlocks trees (module docstring).
        table.add("g1", INITIAL, INITIAL_PRIME, "g1")
        table.add("g1", INITIAL_PRIME, INITIAL_PRIME, "g1")
        table.add("g2", INITIAL, INITIAL, "g2")
        table.add("g2", INITIAL_PRIME, INITIAL_PRIME, "g2")

        super().__init__(
            name="graph-bipartition",
            space=space,
            transitions=table,
            initial_state=INITIAL,
            stability_signature_factory=self._make_stability_signature,
            metadata={
                "k": 2,
                "states": 4,
                "fairness": "global",
                "topology": "arbitrary connected graph",
                "paper": "Yasumi et al., arXiv:2011.08366 (mobility variant)",
            },
            require_symmetric=True,
        )
        self._g_idx = (space.index("g1"), space.index("g2"))
        self._i_idx = (space.index(INITIAL), space.index(INITIAL_PRIME))

    # ------------------------------------------------------------------
    # Stability (count form; terminal configurations with odd n are
    # stable but not silent, so silence is the wrong test here)
    # ------------------------------------------------------------------
    def _make_stability_signature(self, n: int) -> StabilitySignature:
        half, r = divmod(n, 2)
        g1, g2 = self._g_idx
        return StabilitySignature(
            (((g1,), half), ((g2,), half), (self._i_idx, r))
        )

    # ------------------------------------------------------------------
    # Conservation laws (the graph analogue of Lemma 1)
    # ------------------------------------------------------------------
    def balance_residual(self, counts: Sequence[int] | np.ndarray) -> int:
        """``#g1 - #g2`` — zero at every reachable configuration."""
        counts = np.asarray(counts, dtype=np.int64)
        g1, g2 = self._g_idx
        return int(counts[g1] - counts[g2])

    def free_count(self, counts: Sequence[int] | np.ndarray) -> int:
        """Number of uncommitted agents; its parity is conserved."""
        counts = np.asarray(counts, dtype=np.int64)
        i0, i1 = self._i_idx
        return int(counts[i0] + counts[i1])

    def expected_group_sizes(self, n: int) -> np.ndarray:
        """Final sizes: ``ceil(n/2)`` in group 1, ``floor(n/2)`` in group 2."""
        if n < 1:
            raise ProtocolError(f"population size must be positive, got {n}")
        half, r = divmod(n, 2)
        return np.asarray([half + r, half], dtype=np.int64)


def graph_bipartition() -> GraphBipartitionProtocol:
    """Build the mobility bipartition protocol for arbitrary graphs."""
    return GraphBipartitionProtocol()
