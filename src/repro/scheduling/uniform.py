"""The uniformly random scheduler — the paper's simulation model.

"In the simulations, we construct an execution by selecting two agents
uniformly at random in each configuration and making them interact.
Note that, if we construct an infinite execution by this way, the
execution satisfies global fairness with probability 1." (Section 5)

Pairs are pre-sampled in blocks with NumPy so the per-interaction
Python cost stays minimal.  The distinct-pair trick samples the
responder from ``n - 1`` slots and shifts it past the initiator, which
is exactly uniform over ordered distinct pairs (hence uniform over
unordered pairs with random orientation).

:func:`uniform_pairs` is the one implementation of that draw: the
scheduler, the batch sessions and the hybrid engine's first phase all
call it, so for one seed they consume the same random stream.
"""

from __future__ import annotations

import numpy as np

from .base import PairBlock, Scheduler

__all__ = ["UniformScheduler", "uniform_pairs"]


def uniform_pairs(rng: np.random.Generator, n: int, size: int) -> PairBlock:
    """Draw ``size`` uniform ordered pairs of distinct agents out of ``n``.

    All initiators first, then all responders, from ``rng``: the order
    every engine's random stream depends on.
    """
    a = rng.integers(0, n, size=size)
    b = rng.integers(0, n - 1, size=size)
    b += b >= a  # shift past the initiator: uniform over the other n-1
    return a, b


class UniformScheduler(Scheduler):
    """Uniform random pairs over all ordered distinct agent pairs."""

    def next_block(self, size: int) -> PairBlock:
        return uniform_pairs(self._rng, self._n, size)

    @property
    def is_uniform(self) -> bool:
        return True
