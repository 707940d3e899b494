"""Uniform k-partition under *weak* fairness (base-station construction).

The source paper proves its 3k-2-state protocol correct under **global**
fairness: whenever a configuration recurs forever, every successor of it
must also occur.  Weak fairness promises far less — only that every
*pair* of agents interacts infinitely often — and the paper's protocol
genuinely needs the stronger assumption: under a deterministic
round-robin sweep (weakly fair, not globally fair) rules 1-2 can flip
``initial <-> initial'`` in lockstep forever and the symmetry-breaking
rule 5 never fires (``tests/scheduling/test_adversarial.py`` pins that
livelock).

The follow-up line of work (arXiv:1911.04678, same group) studies
exactly this relaxation.  The construction implemented here is the
*base-station* (coordinator) variant of that family: one designated
agent starts as the coordinator ``bs_1`` and assigns output groups
cyclically; everybody else starts ``free``::

    (bs_i, free) -> (bs_{(i mod k) + 1}, g_i)        for i = 1..k

and the coordinator itself outputs group ``f(bs_i) = i`` — the group it
would hand out next — so the terminal configuration is exactly uniform:
``n - 1`` agents receive ``g_1, g_2, g_3, ...`` cyclically and the
coordinator completes the trailing partial cycle.

Why this is correct under weak fairness (and even under a deterministic
round-robin sweep): the number of ``free`` agents strictly decreases at
every effective interaction and a ``(bs, free)`` pair stays enabled as
long as any ``free`` remains, so any schedule in which every pair meets
infinitely often drains the frees in at most ``n - 1`` effective
interactions; after that the configuration is silent.  No configuration
ever admits a step that changes a committed group, so stabilization is
monotone — there is nothing for an unfair-but-weakly-fair adversary to
exploit.  The price of weak fairness is the designated coordinator
(``2k + 1`` states instead of ``3k - 2`` fully symmetric ones); see
``docs/scenarios.md`` for the proved-vs-observed grid.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.errors import ProtocolError
from ..core.protocol import Protocol, StabilitySignature
from ..core.state import StateSpace
from ..core.transitions import TransitionTable

__all__ = ["WeakKPartitionProtocol", "weak_k_partition", "FREE"]

#: The non-coordinator designated initial state.
FREE = "free"


def _bs(i: int) -> str:
    return f"bs_{i}"


def _g(i: int) -> str:
    return f"g_{i}"


class WeakKPartitionProtocol(Protocol):
    """Base-station uniform k-partition, correct under weak fairness.

    States (``2k + 1``): the coordinator chain ``bs_1 .. bs_k``, the
    shared ``free`` state, and the committed groups ``g_1 .. g_k``.
    The designated initial configuration places exactly one agent in
    ``bs_1`` (the base station) and ``n - 1`` agents in ``free``.
    """

    def __init__(self, k: int) -> None:
        if k < 2:
            raise ProtocolError(f"k must be at least 2, got {k}")
        self._k = k
        bs_names = [_bs(i) for i in range(1, k + 1)]
        g_names = [_g(i) for i in range(1, k + 1)]
        names = bs_names + [FREE] + g_names
        groups = {_bs(i): i for i in range(1, k + 1)}
        groups[FREE] = 1
        groups.update({_g(i): i for i in range(1, k + 1)})
        space = StateSpace(names, groups=groups, num_groups=k)
        table = TransitionTable(space)
        for i in range(1, k + 1):
            nxt = i % k + 1
            table.add(_bs(i), FREE, _bs(nxt), _g(i))
        super().__init__(
            name=f"weak-{k}-partition",
            space=space,
            transitions=table,
            initial_state=FREE,
            initial_counts_factory=self._make_initial_counts,
            stability_signature_factory=self._make_stability_signature,
            metadata={
                "k": k,
                "states": 2 * k + 1,
                "fairness": "weak",
                "paper": "Yasumi et al., arXiv:1911.04678 (base-station variant)",
            },
            require_symmetric=True,
        )
        self._free_idx = space.index(FREE)
        self._bs_idx = tuple(space.index(_bs(i)) for i in range(1, k + 1))
        self._g_idx = tuple(space.index(_g(i)) for i in range(1, k + 1))

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        return self._k

    @property
    def free_index(self) -> int:
        return self._free_idx

    @property
    def bs_indices(self) -> tuple[int, ...]:
        """State indices of ``bs_1 .. bs_k`` (exactly one is occupied)."""
        return self._bs_idx

    @property
    def g_indices(self) -> tuple[int, ...]:
        return self._g_idx

    # ------------------------------------------------------------------
    # Designated initial configuration: one coordinator, n-1 frees
    # ------------------------------------------------------------------
    def _make_initial_counts(self, n: int) -> np.ndarray:
        if n < 2:
            raise ProtocolError(
                f"the base-station construction needs n >= 2, got {n}"
            )
        counts = np.zeros(self.num_states, dtype=np.int64)
        counts[self._bs_idx[0]] = 1
        counts[self._free_idx] = n - 1
        return counts

    # ------------------------------------------------------------------
    # Stability: no free agent left (the terminal configuration is
    # silent, so the signature exists purely as the cheap exact test)
    # ------------------------------------------------------------------
    def _make_stability_signature(self, n: int) -> StabilitySignature:
        return StabilitySignature((((self._free_idx,), 0),))

    # ------------------------------------------------------------------
    # Closed forms
    # ------------------------------------------------------------------
    def expected_group_sizes(self, n: int) -> np.ndarray:
        """Final sizes: ``n mod k`` groups of ``ceil(n/k)``, rest floor.

        The coordinator assigns ``g_1, g_2, ...`` cyclically to the
        ``n - 1`` frees and finishes in ``bs_t`` with ``t = ((n - 1)
        mod k) + 1``, contributing its own output ``t`` — so groups
        ``1 .. n mod k`` hold ``floor(n/k) + 1`` agents each.
        """
        if n < 2:
            raise ProtocolError(f"population size must be at least 2, got {n}")
        q, r = divmod(n, self._k)
        sizes = np.full(self._k, q, dtype=np.int64)
        sizes[:r] += 1
        return sizes

    def assignment_residuals(self, counts: Sequence[int] | np.ndarray) -> np.ndarray:
        """The construction's conservation law, as residuals (all zero).

        At every reachable configuration the coordinator sits in some
        ``bs_t`` and has assigned groups cyclically, so the committed
        counts form an exact prefix staircase anchored at ``g_k``::

            #g_x - #g_k - [x <= t - 1] = 0    for every x

        This is the weak-fairness analogue of the source paper's
        Lemma 1 residuals: a single corrupted transition-table entry
        breaks it immediately, which is what the conformance invariant
        pack checks.
        """
        counts = np.asarray(counts, dtype=np.int64)
        bs = counts[list(self._bs_idx)]
        if int(bs.sum()) != 1:
            # Not a reachable configuration; report the staircase raw.
            t = 1
        else:
            t = int(np.flatnonzero(bs)[0]) + 1
        g = counts[list(self._g_idx)]
        expected = g[-1] + (np.arange(1, self._k + 1) <= t - 1)
        return g - expected

    def coordinator_count(self, counts: Sequence[int] | np.ndarray) -> int:
        """Total agents in ``bs_*`` states (exactly 1 when reachable)."""
        counts = np.asarray(counts, dtype=np.int64)
        return int(counts[list(self._bs_idx)].sum())


def weak_k_partition(k: int) -> WeakKPartitionProtocol:
    """Build the weak-fairness base-station uniform k-partition protocol."""
    return WeakKPartitionProtocol(k)
