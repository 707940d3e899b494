"""R-generalized partition — the follow-up extension the paper cites.

After the conference version, Umino, Kitamura and Izumi [24] extended
uniform k-partition to the *R-generalized partition problem*: divide
the population into ``k`` groups whose sizes follow a given integer
ratio ``R = (r_1 : r_2 : ... : r_k)``.

The construction implemented here is the natural reduction the paper's
machinery suggests: run the uniform ``W``-partition protocol with
``W = r_1 + ... + r_k`` *slots* and relabel the group map so that the
first ``r_1`` slots feed group 1, the next ``r_2`` feed group 2, and so
on.  Every slot stabilizes to ``floor(n/W)`` or ``floor(n/W) + 1``
agents (Theorem 1), so group ``i`` ends with ``r_i * floor(n/W)`` up to
``r_i * (floor(n/W) + 1)`` agents — i.e. sizes proportional to ``R``
with per-group error at most ``r_i``.  With ``W | n`` the ratio is
exact.  State complexity is ``3W - 2``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.errors import ProtocolError
from ..core.protocol import Protocol
from ..core.transitions import TransitionTable
from .kpartition import UniformKPartitionProtocol

__all__ = ["RGeneralizedPartitionProtocol", "r_generalized_partition"]


class RGeneralizedPartitionProtocol(Protocol):
    """Partition into ``k`` groups with sizes in ratio ``R``.

    Parameters
    ----------
    ratio:
        Positive integers ``(r_1, ..., r_k)``; group ``i`` should
        receive a ``r_i / sum(R)`` share of the population.
    """

    def __init__(self, ratio: Sequence[int]) -> None:
        ratio = tuple(int(r) for r in ratio)
        if len(ratio) < 2:
            raise ProtocolError("ratio must list at least two groups")
        if any(r < 1 for r in ratio):
            raise ProtocolError(f"ratio entries must be positive, got {ratio}")
        W = sum(ratio)
        if W < 2:
            raise ProtocolError("total ratio weight must be at least 2")
        self._ratio = ratio
        self._W = W

        # Slot x (1..W) belongs to the group whose cumulative range
        # covers x.
        slot_group = np.empty(W + 1, dtype=np.int64)  # 1-based
        g = 1
        upper = ratio[0]
        for x in range(1, W + 1):
            while x > upper:
                g += 1
                upper += ratio[g - 1]
            slot_group[x] = g

        inner = UniformKPartitionProtocol(W)
        self._inner = inner

        # Same states and rules as uniform W-partition; only f changes.
        groups = {}
        for name in inner.space.names:
            slot = inner.space.group_of(name)
            groups[name] = int(slot_group[slot])
        space = inner.space.with_groups(groups, num_groups=len(ratio))
        table = TransitionTable(space)
        for t in inner.transitions:
            table.add(t.p, t.q, t.p2, t.q2, mirror=False)

        super().__init__(
            name=f"r-generalized-partition-{':'.join(map(str, ratio))}",
            space=space,
            transitions=table,
            initial_state=inner.initial_state,
            # Same state order as the inner space, so its signature holds.
            stability_signature_factory=inner.stability_signature,
            metadata={
                "ratio": ratio,
                "W": W,
                "k": len(ratio),
                "paper": "Umino, Kitamura, Izumi, BDA 2018 [24]",
                "states": 3 * W - 2,
            },
        )

    @property
    def ratio(self) -> tuple[int, ...]:
        return self._ratio

    @property
    def k(self) -> int:
        return len(self._ratio)

    @property
    def total_weight(self) -> int:
        """``W = sum(ratio)`` — the number of underlying slots."""
        return self._W

    @property
    def inner(self) -> UniformKPartitionProtocol:
        """The underlying uniform W-partition protocol."""
        return self._inner

    def expected_group_sizes(self, n: int) -> np.ndarray:
        """Final group sizes implied by the slot-level stable signature."""
        slot_sizes = self._inner.expected_group_sizes(n)
        sizes = np.zeros(len(self._ratio), dtype=np.int64)
        start = 0
        for i, r in enumerate(self._ratio):
            sizes[i] = int(slot_sizes[start : start + r].sum())
            start += r
        return sizes

    def max_ratio_error(self, n: int) -> float:
        """Largest deviation ``|size_i - n * r_i / W|`` at stability."""
        sizes = self.expected_group_sizes(n)
        targets = np.asarray(self._ratio, dtype=np.float64) * n / self._W
        return float(np.abs(sizes - targets).max())


def r_generalized_partition(ratio: Sequence[int]) -> RGeneralizedPartitionProtocol:
    """Build the R-generalized partition protocol for an integer ratio."""
    return RGeneralizedPartitionProtocol(ratio)
