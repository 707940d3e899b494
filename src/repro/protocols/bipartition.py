"""The 4-state uniform bipartition protocol of Yasumi et al. [25].

This is the prior work the paper builds on: a symmetric protocol with
designated initial states that splits a population into two groups of
(almost) equal size under global fairness, using the provably minimal
four states.  Section 4 of the k-partition paper notes that Algorithm 1
with ``k = 2`` *is* this protocol; the test suite verifies that claim by
comparing the two transition tables.

States: ``initial``, ``initial'`` (free, group 1), ``g1``, ``g2``.
Rules::

    (initial , initial )  -> (initial', initial')
    (initial', initial')  -> (initial , initial )
    (initial , initial')  -> (g1, g2)
    (g_i, ini)            -> (g_i, ini_bar)

Free agents toggle between the two initial flavours; when an
``initial`` meets an ``initial'`` the pair commits to opposite groups
simultaneously, which is the "partner balance" mechanism the paper's
introduction explains cannot be extended beyond k = 2 by a single
interaction.
"""

from __future__ import annotations

import numpy as np

from ..core.errors import ProtocolError
from ..core.protocol import Protocol, StabilitySignature
from ..core.state import StateSpace
from ..core.transitions import TransitionTable
from .kpartition import INITIAL, INITIAL_PRIME

__all__ = ["UniformBipartitionProtocol", "uniform_bipartition"]


class UniformBipartitionProtocol(Protocol):
    """The 4-state symmetric uniform bipartition protocol."""

    def __init__(self) -> None:
        names = [INITIAL, INITIAL_PRIME, "g1", "g2"]
        groups = {INITIAL: 1, INITIAL_PRIME: 1, "g1": 1, "g2": 2}
        space = StateSpace(names, groups=groups, num_groups=2)
        table = TransitionTable(space)

        table.add(INITIAL, INITIAL, INITIAL_PRIME, INITIAL_PRIME)
        table.add(INITIAL_PRIME, INITIAL_PRIME, INITIAL, INITIAL)
        table.add(INITIAL, INITIAL_PRIME, "g1", "g2")
        for g in ("g1", "g2"):
            table.add(g, INITIAL, g, INITIAL_PRIME)
            table.add(g, INITIAL_PRIME, g, INITIAL)

        super().__init__(
            name="uniform-bipartition",
            space=space,
            transitions=table,
            initial_state=INITIAL,
            stability_signature_factory=self._make_stability_signature,
            metadata={"k": 2, "paper": "Yasumi et al., OPODIS 2017 [25]", "states": 4},
            require_symmetric=True,
        )
        self._g_idx = (space.index("g1"), space.index("g2"))
        self._i_idx = (space.index(INITIAL), space.index(INITIAL_PRIME))

    def _make_stability_signature(self, n: int) -> StabilitySignature:
        """Stable iff ``#g1 == #g2 == n // 2`` and ``n mod 2`` agents are free."""
        half, r = divmod(n, 2)
        g1, g2 = self._g_idx
        return StabilitySignature(
            (((g1,), half), ((g2,), half), (self._i_idx, r))
        )

    def expected_group_sizes(self, n: int) -> np.ndarray:
        """Final sizes: ``ceil(n/2)`` in group 1, ``floor(n/2)`` in group 2."""
        if n < 1:
            raise ProtocolError(f"population size must be positive, got {n}")
        half, r = divmod(n, 2)
        return np.asarray([half + r, half], dtype=np.int64)


def uniform_bipartition() -> UniformBipartitionProtocol:
    """Build the 4-state uniform bipartition protocol of [25]."""
    return UniformBipartitionProtocol()
