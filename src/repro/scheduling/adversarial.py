"""Biased but (probabilistically) globally fair schedulers.

Global fairness quantifies over *all* executions; random schedulers
realize it with probability 1 as long as every pair keeps a positive,
bounded-away-from-zero probability at every step.  The schedulers here
preserve that property while being as unhelpful as possible, which lets
the tests check that the protocol's *correctness* does not secretly
rely on the uniform scheduler (only its *speed* does):

* :class:`WeightedScheduler` — agents have static popularity weights; a
  pair is chosen with probability proportional to the product of its
  weights.  Heavy skew starves (but never excludes) unpopular agents.
* :class:`StickyScheduler` — with probability ``p`` repeat the previous
  pair, otherwise draw uniformly.  Models bursty encounters (two birds
  flying together for a while).

A deterministic round-robin sweep over all pairs is *weakly* fair but
not globally fair; :class:`RoundRobinScheduler` is provided to
demonstrate the difference (the k-partition protocol can cycle forever
under it — see ``tests/scheduling/test_adversarial.py``).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.errors import SchedulerError
from ..core.rng import SeedLike
from .base import PairBlock, Scheduler

__all__ = ["WeightedScheduler", "StickyScheduler", "RoundRobinScheduler"]


class WeightedScheduler(Scheduler):
    """Pairs drawn with probability proportional to weight products.

    Each interaction picks two distinct agents, each with probability
    proportional to its weight (rejection-free: the second draw uses
    the weights with the first agent removed).
    """

    def __init__(self, weights: Sequence[float], seed: SeedLike = None) -> None:
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size < 2:
            raise SchedulerError("need a flat weight vector of length >= 2")
        if (w <= 0).any() or not np.isfinite(w).all():
            raise SchedulerError("weights must be positive and finite")
        super().__init__(len(w), seed)
        self._w = w
        self._p = w / w.sum()

    def next_block(self, size: int) -> PairBlock:
        a = self._rng.choice(self._n, size=size, p=self._p)
        b = np.empty(size, dtype=np.int64)
        for i, ai in enumerate(a):
            # Renormalize with the initiator excluded.
            w = self._w.copy()
            w[ai] = 0.0
            b[i] = self._rng.choice(self._n, p=w / w.sum())
        return a.astype(np.int64), b


class StickyScheduler(Scheduler):
    """Repeat the previous pair with probability ``stickiness``.

    The remaining probability mass is uniform, so every pair retains
    probability at least ``(1 - stickiness) / (n(n-1))`` per step and
    infinite executions stay globally fair with probability 1.
    """

    def __init__(self, n: int, stickiness: float = 0.5, seed: SeedLike = None) -> None:
        if not 0.0 <= stickiness < 1.0:
            raise SchedulerError(f"stickiness must be in [0, 1), got {stickiness}")
        super().__init__(n, seed)
        self._stickiness = float(stickiness)
        self._last: tuple[int, int] | None = None

    def capture_state(self) -> dict:
        state = super().capture_state()
        state["last"] = self._last
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self._last = state["last"]

    def next_block(self, size: int) -> PairBlock:
        n = self._n
        a = np.empty(size, dtype=np.int64)
        b = np.empty(size, dtype=np.int64)
        rng = self._rng
        last = self._last
        for i in range(size):
            if last is not None and rng.random() < self._stickiness:
                a[i], b[i] = last
            else:
                ai = int(rng.integers(0, n))
                bi = int(rng.integers(0, n - 1))
                if bi >= ai:
                    bi += 1
                a[i], b[i] = ai, bi
                last = (ai, bi)
        self._last = last
        return a, b


class RoundRobinScheduler(Scheduler):
    """Deterministic cyclic sweep over all ordered pairs.

    Every pair occurs infinitely often (weak fairness), but the
    schedule ignores configurations entirely, so it is **not** globally
    fair: a configuration that recurs does not get all its successors
    explored.  Protocols proved correct only under global fairness may
    livelock under this scheduler — which is precisely its purpose in
    the test suite.
    """

    def __init__(self, n: int, seed: SeedLike = None) -> None:
        super().__init__(n, seed)
        # The full ordered-pair table, precomputed once as one int64
        # ndarray: initiator-major, responders ascending with the
        # initiator skipped — the same enumeration order as
        # ``[(a, b) for a in range(n) for b in range(n) if a != b]``.
        a_col = np.repeat(np.arange(n, dtype=np.int64), n - 1)
        b_col = np.tile(np.arange(n - 1, dtype=np.int64), n)
        b_col += b_col >= a_col
        self._pairs = np.column_stack((a_col, b_col))
        self._pos = 0

    @property
    def pair_table(self) -> np.ndarray:
        """The precomputed ``(n(n-1), 2)`` ordered-pair table (read-only)."""
        return self._pairs

    def next_block(self, size: int) -> PairBlock:
        total = len(self._pairs)
        idx = (self._pos + np.arange(size)) % total
        self._pos = int((self._pos + size) % total)
        pairs = self._pairs[idx]
        return pairs[:, 0].copy(), pairs[:, 1].copy()

    def capture_state(self) -> dict:
        state = super().capture_state()
        state["pos"] = self._pos
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self._pos = int(state["pos"])
