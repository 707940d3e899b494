"""Scheduler interface.

A scheduler decides which pair of agents interacts next.  The paper's
simulations (Section 5) use the *uniformly random* scheduler — two
agents chosen uniformly at random at every step — whose infinite
executions are globally fair with probability 1.  The library also
provides biased and graph-restricted schedulers to probe how much the
protocol's behaviour depends on that choice.

Schedulers are agent-level objects: they see the population size and
emit index pairs.  The count-based
engine does not use a scheduler — it is mathematically specialized to
the uniform scheduler (see :mod:`repro.engine.count_based`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..core.errors import SchedulerError
from ..core.rng import SeedLike, ensure_generator

__all__ = ["Scheduler", "PairBlock"]

#: A block of pre-sampled interaction pairs: two equal-length index arrays.
PairBlock = tuple[np.ndarray, np.ndarray]


class Scheduler(ABC):
    """Chooses interacting agent pairs for a population of ``n`` agents."""

    def __init__(self, n: int, seed: SeedLike = None) -> None:
        if n < 2:
            raise SchedulerError(f"need at least two agents to interact, got n = {n}")
        self._n = n
        self._rng = ensure_generator(seed)

    @property
    def n(self) -> int:
        return self._n

    @property
    def rng(self) -> np.random.Generator:
        return self._rng

    @abstractmethod
    def next_block(self, size: int) -> PairBlock:
        """Sample ``size`` interaction pairs (initiator, responder arrays).

        Pairs must consist of two *distinct* agent indices.
        """

    def next_pair(self) -> tuple[int, int]:
        """Sample a single interaction pair (convenience wrapper)."""
        a, b = self.next_block(1)
        return int(a[0]), int(b[0])

    @property
    def is_uniform(self) -> bool:
        """True when pairs are uniform over all unordered agent pairs.

        Only uniform schedulers are compatible with the count-based
        engine's closed-form null skipping.
        """
        return False

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------
    def capture_state(self) -> dict:
        """The scheduler's *mutable* run state, as a picklable dict.

        Sessions snapshot this instead of deep-copying the scheduler
        object, so immutable structure (edge arrays, pair tables,
        networkx graphs, weight vectors) is shared across snapshots and
        only the evolving state — the RNG, by default — is copied.
        Stateful subclasses extend the dict (call ``super()`` first).
        """
        return {"rng": self._rng.bit_generator.state}

    def restore_state(self, state: dict) -> None:
        """Rewind the scheduler to a :meth:`capture_state` dict, in place."""
        self._rng.bit_generator.state = state["rng"]
