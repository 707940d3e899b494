"""Algorithm 1 of the paper: the 3k-2 state uniform k-partition protocol.

The protocol divides an anonymous population of ``n >= 3`` agents into
``k`` groups whose sizes differ by at most one.  It is deterministic,
*symmetric*, uses designated initial states, and stabilizes under global
fairness (Theorem 1 of the paper).

State set (Section 3)::

    Q = I + G + M + D
    I = {initial, initial'}          free agents            f = 1
    G = {g1, ..., gk}                group members           f(gi) = i
    M = {m2, ..., m_{k-1}}           chain intermediates     f(mi) = i
    D = {d1, ..., d_{k-2}}           undo tokens             f(di) = 1

Transition rules (numbering follows Algorithm 1; ``ini`` ranges over I
and ``ini_bar`` flips initial <-> initial')::

     1. (initial , initial )  -> (initial', initial')
     2. (initial', initial')  -> (initial , initial )
     3. (d_i, ini)            -> (d_i, ini_bar)
     4. (g_i, ini)            -> (g_i, ini_bar)
     5. (initial, initial')   -> (g1, m2)
     6. (ini, m_i)            -> (g_i, m_{i+1})     2 <= i <= k-2
     7. (ini, m_{k-1})        -> (g_{k-1}, g_k)
     8. (m_i, m_j)            -> (d_{i-1}, d_{j-1}) 2 <= i, j <= k-1
     9. (d_i, g_i)            -> (d_{i-1}, initial) 2 <= i <= k-2
    10. (d_1, g_1)            -> (initial, initial)

Transcription notes
-------------------
* The OCRed paper prints rules 3 and 4 without the overline on the
  output (``(d_i, ini) -> (d_i, ini)``).  Per the prose of Section 3.1
  ("Each agent in state initial (resp., initial') transits to initial'
  (resp., initial) when it interacts with an agent in a state in
  I + D + G ..."), the output must be the *flipped* free state; we
  implement the flip.  Without it rule 5 could never fire from an
  all-``initial'`` population and the protocol would not be correct.
* For ``k = 2`` the sets M and D are empty and rule 5 produces
  ``(g1, g2)`` directly; the paper notes the protocol then coincides
  with the 4-state uniform bipartition protocol of Yasumi et al. [25].

Stable configurations (Lemmas 4-6).  With ``q = n // k`` and
``r = n mod k`` the unique stable count signature is::

    #g_x = q + 1   for x <= r - 1
    #g_x = q       for x >= r
    one agent in initial/initial'   if r == 1
    one agent in m_r                if r >= 2
    no agents in D, no other agents in M or I

For ``r == 1`` the stable configuration is *not silent*: rule 4 keeps
flipping the leftover free agent between initial and initial', but both
states map to group 1, so the partition never changes.  The engines
therefore test this signature (the protocol's ``StabilitySignature``,
also behind :meth:`UniformKPartitionProtocol.stable`) rather than
silence.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.errors import ProtocolError
from ..core.protocol import Protocol, StabilitySignature
from ..core.state import StateSpace
from ..core.transitions import TransitionTable

__all__ = ["UniformKPartitionProtocol", "uniform_k_partition", "INITIAL", "INITIAL_PRIME"]

#: Name of the designated initial state.
INITIAL = "initial"
#: Name of the shadow initial state used to break symmetry via rule 5.
INITIAL_PRIME = "initial'"


def _g(i: int) -> str:
    return f"g{i}"


def _m(i: int) -> str:
    return f"m{i}"


def _d(i: int) -> str:
    return f"d{i}"


class UniformKPartitionProtocol(Protocol):
    """The paper's uniform k-partition protocol for a fixed ``k >= 2``.

    Use :func:`uniform_k_partition` (or this constructor) to build one::

        >>> p = uniform_k_partition(3)
        >>> p.num_states            # 3k - 2
        7
        >>> p.is_symmetric
        True
    """

    def __init__(self, k: int) -> None:
        if not isinstance(k, int):
            raise ProtocolError(f"k must be an integer, got {k!r}")
        if k < 2:
            raise ProtocolError(f"uniform k-partition requires k >= 2, got k = {k}")
        self._k = k

        names = [INITIAL, INITIAL_PRIME]
        names += [_g(i) for i in range(1, k + 1)]
        names += [_m(i) for i in range(2, k)]        # m2 .. m_{k-1}
        names += [_d(i) for i in range(1, k - 1)]    # d1 .. d_{k-2}

        groups: dict[str, int] = {INITIAL: 1, INITIAL_PRIME: 1}
        for i in range(1, k + 1):
            groups[_g(i)] = i
        for i in range(2, k):
            groups[_m(i)] = i
        for i in range(1, k - 1):
            groups[_d(i)] = 1

        space = StateSpace(names, groups=groups, num_groups=k)
        table = TransitionTable(space)
        flip = {INITIAL: INITIAL_PRIME, INITIAL_PRIME: INITIAL}

        # Rules 1-2: free agents toggle so that rule 5 can eventually
        # pair an ``initial`` with an ``initial'`` (symmetry breaking
        # without asymmetric transitions).
        table.add(INITIAL, INITIAL, INITIAL_PRIME, INITIAL_PRIME)
        table.add(INITIAL_PRIME, INITIAL_PRIME, INITIAL, INITIAL)

        # Rules 3-4: members of D and G flip the free partner.
        for ini, flipped in flip.items():
            for i in range(1, k - 1):
                table.add(_d(i), ini, _d(i), flipped)
            for i in range(1, k + 1):
                table.add(_g(i), ini, _g(i), flipped)

        # Rule 5: start a grouping chain.  For k = 2 the chain has
        # length two, so the pair becomes (g1, g2) immediately.
        if k == 2:
            table.add(INITIAL, INITIAL_PRIME, _g(1), _g(2))
        else:
            table.add(INITIAL, INITIAL_PRIME, _g(1), _m(2))

            # Rule 6: extend the chain.
            for ini in flip:
                for i in range(2, k - 1):
                    table.add(ini, _m(i), _g(i), _m(i + 1))

            # Rule 7: close the chain.
            for ini in flip:
                table.add(ini, _m(k - 1), _g(k - 1), _g(k))

            # Rule 8: two chains collide; both become undo tokens.
            for i in range(2, k):
                for j in range(i, k):
                    table.add(_m(i), _m(j), _d(i - 1), _d(j - 1))

            # Rules 9-10: undo tokens release one group member per level.
            for i in range(2, k - 1):
                table.add(_d(i), _g(i), _d(i - 1), INITIAL)
            table.add(_d(1), _g(1), INITIAL, INITIAL)

        super().__init__(
            name=f"uniform-{k}-partition",
            space=space,
            transitions=table,
            initial_state=INITIAL,
            stability_signature_factory=self._make_stability_signature,
            metadata={
                "k": k,
                "paper": "Yasumi et al., IPPS 2018 / IJNC 2019",
                "states": 3 * k - 2,
            },
            require_symmetric=True,
        )

        # Cache index blocks used by the stability test and Lemma-1 checks.
        self._i_idx = (space.index(INITIAL), space.index(INITIAL_PRIME))
        self._g_idx = tuple(space.index(_g(i)) for i in range(1, k + 1))
        self._m_idx = tuple(space.index(_m(i)) for i in range(2, k))
        self._d_idx = tuple(space.index(_d(i)) for i in range(1, k - 1))

    # ------------------------------------------------------------------
    # Structure accessors
    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        """Number of groups."""
        return self._k

    @property
    def initial_indices(self) -> tuple[int, int]:
        """Indices of (initial, initial')."""
        return self._i_idx

    @property
    def g_indices(self) -> tuple[int, ...]:
        """Indices of g1..gk (``g_indices[i-1]`` is ``g_i``)."""
        return self._g_idx

    @property
    def m_indices(self) -> tuple[int, ...]:
        """Indices of m2..m_{k-1} (``m_indices[i-2]`` is ``m_i``)."""
        return self._m_idx

    @property
    def d_indices(self) -> tuple[int, ...]:
        """Indices of d1..d_{k-2} (``d_indices[i-1]`` is ``d_i``)."""
        return self._d_idx

    @property
    def gk_index(self) -> int:
        """Index of ``g_k`` — the count that certifies grouping progress."""
        return self._g_idx[-1]

    @staticmethod
    def state_count(k: int) -> int:
        """``|Q| = 3k - 2`` (also 4 for k = 2, consistently)."""
        if k < 2:
            raise ProtocolError(f"k-partition requires k >= 2, got {k}")
        return 3 * k - 2

    # ------------------------------------------------------------------
    # Stable signature (Lemmas 4-6)
    # ------------------------------------------------------------------
    def expected_stable_counts(self, n: int) -> dict[str, int]:
        """The unique stable count signature for ``n`` agents.

        For ``r = n mod k == 1`` the leftover free agent may be in
        either ``initial`` or ``initial'``; the returned dict reports it
        under ``initial`` (callers comparing against live counts should
        sum the two free states — :meth:`stable` does).
        """
        if n < 1:
            raise ProtocolError(f"population size must be positive, got {n}")
        k = self._k
        q, r = divmod(n, k)
        expected = {name: 0 for name in self.space.names}
        for x in range(1, k + 1):
            expected[_g(x)] = q + 1 if x <= r - 1 else q
        if r == 1:
            expected[INITIAL] = 1
        elif r >= 2:
            expected[_m(r)] = 1
        return expected

    def expected_group_sizes(self, n: int) -> np.ndarray:
        """Final group sizes: ``r`` groups of size ``q+1``, rest ``q``.

        Groups ``1..r-1`` get a ``g``-member surplus and the group of
        the leftover agent (group 1 if ``r == 1``, group ``r`` via
        ``m_r`` if ``r >= 2``) absorbs the remaining unit.
        """
        k = self._k
        q, r = divmod(n, k)
        sizes = np.full(k, q, dtype=np.int64)
        if r == 1:
            sizes[0] += 1
        elif r >= 2:
            sizes[: r - 1] += 1  # g-surplus groups 1..r-1
            sizes[r - 1] += 1    # the m_r agent maps to group r
        return sizes

    def _make_stability_signature(self, n: int) -> StabilitySignature:
        """Lemma 6 as a signature, read off :meth:`expected_stable_counts`.

        ``#g_k == q`` leads: ``g_k`` is the last count to reach its
        target, so this one comparison rejects almost every non-stable
        configuration.  The two free states are interchangeable (rule 4
        keeps flipping the leftover agent when ``r == 1``), so they are
        constrained as a sum; every other state gets its exact count.
        """
        expected = self.expected_stable_counts(n)
        gk = self.gk_index
        groups = [((gk,), expected[_g(self._k)])]
        groups.append((self._i_idx, expected[INITIAL] + expected[INITIAL_PRIME]))
        groups += [
            ((i,), expected[name])
            for i, name in enumerate(self.space.names)
            if i != gk and i not in self._i_idx
        ]
        return StabilitySignature(tuple(groups))

    def stable(self, counts: Sequence[int] | np.ndarray, n: int | None = None) -> bool:
        """True when ``counts`` is the stable signature for ``n`` agents."""
        counts = self._validated_counts(counts)
        if n is None:
            n = int(counts.sum())
        if n < 1:
            raise ProtocolError(f"population size must be positive, got {n}")
        return self.stability_signature(n).evaluate(counts)

    # ------------------------------------------------------------------
    # Lemma 1
    # ------------------------------------------------------------------
    def _validated_counts(self, counts: Sequence[int] | np.ndarray) -> np.ndarray:
        """Normalize a count vector, rejecting malformed input clearly.

        The Lemma-1 and stability checks are invoked from invariant
        monitors on live engine state; a shape or sign error must name
        the problem instead of surfacing as a bare ``IndexError`` deep
        in an index block (which for ``k = 2``, where ``M`` and ``D``
        are empty, used to point at the wrong sum entirely).
        """
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (self.num_states,):
            raise ProtocolError(
                f"counts vector has shape {counts.shape}, expected "
                f"({self.num_states},) for {self.name}"
            )
        if (counts < 0).any():
            raise ProtocolError(
                f"counts must be non-negative, got {counts.tolist()}"
            )
        return counts

    def lemma1_residuals(self, counts: Sequence[int] | np.ndarray) -> np.ndarray:
        """Residuals of the Lemma-1 invariant, one per ``x`` in 1..k.

        Lemma 1:  ``#g_x = sum_{p > x} #m_p + sum_{q >= x} #d_q + #g_k``
        for every reachable configuration.  Returns the vector of
        left-minus-right differences; all-zero iff the invariant holds.
        For ``k = 2`` (and the ``D`` block for ``k = 3``) the ``M``/``D``
        index blocks are empty and the corresponding sums are zero, so
        the invariant degenerates to ``#g_1 = #g_2``.
        """
        counts = self._validated_counts(counts)
        k = self._k
        g = counts[list(self._g_idx)]
        m = counts[list(self._m_idx)] if self._m_idx else np.zeros(0, dtype=np.int64)
        d = counts[list(self._d_idx)] if self._d_idx else np.zeros(0, dtype=np.int64)
        gk = g[-1]
        res = np.empty(k, dtype=np.int64)
        for x in range(1, k + 1):
            # m indices cover m_2..m_{k-1}: entries with p > x are m[x-1:].
            m_tail = int(m[x - 1:].sum()) if m.size else 0
            # d indices cover d_1..d_{k-2}: entries with q >= x are d[x-1:].
            d_tail = int(d[x - 1:].sum()) if d.size else 0
            res[x - 1] = int(g[x - 1]) - (m_tail + d_tail + int(gk))
        return res

    def satisfies_lemma1(self, counts: Sequence[int] | np.ndarray) -> bool:
        """Check the Lemma-1 invariant in one call."""
        return not self.lemma1_residuals(counts).any()


def uniform_k_partition(k: int) -> UniformKPartitionProtocol:
    """Build the paper's uniform k-partition protocol (Algorithm 1)."""
    return UniformKPartitionProtocol(k)
