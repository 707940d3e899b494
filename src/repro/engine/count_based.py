"""Count-based engine with closed-form null-interaction skipping.

The configuration process under the uniform scheduler is a Markov
chain on count vectors: an interaction picks one of the
``T = n(n-1)`` *ordered* distinct agent pairs uniformly, and the
probability that the next interaction fires rule class ``r`` is
``w_r / T`` where ``w_r`` is the number of ordered pairs realizing
that class (see :class:`repro.core.compiler.InteractionClass` —
mirror-consistent orientations fold into one class with multiplier 2;
oriented rules keep one class per orientation).  With total active
weight ``W = sum_r w_r``, the number of consecutive null interactions
before the next effective one is geometric with success probability
``W / T``.

The engine therefore simulates only the *embedded jump chain*:

1. sample the null-run length from the geometric law and add it to the
   interaction counter,
2. sample the effective class proportionally to ``w_r``,
3. apply it to the count vector and incrementally update the ``w_r`` of
   the classes whose input states changed.

The resulting sequence of configurations — and the total interaction
count — has exactly the same distribution as agent-level simulation
(the equivalence tests check this), but the cost per *effective*
interaction is O(log #classes) — class sampling and weight maintenance
go through the Fenwick-tree index of
:class:`~repro.engine.sampling.FenwickWeights` — and completely
independent of how many null interactions occur.  Near stabilization,
where the paper observes that the last grouping dominates the total
count (Figure 4), almost all interactions are null, and this engine is
orders of magnitude faster than agent-level simulation — it is what
makes the exponential-in-k sweep of Figure 6 feasible in pure Python.

The resumable core is :class:`JumpChain`: one instance owns the Fenwick
weights, pre-drawn uniform block, and generator of a single jump-chain
execution, reads the protocol's shared read-only :class:`ChainTables`,
and advances an external counter context (an
:class:`~repro.engine.session.EngineSession` or a per-replicate proxy).
Three steppers share it: :class:`CountBasedSession`, the hybrid
engine's phase-2 tail, and the ensemble engine's scalar finisher —
which is also what guarantees a run's telemetry is emitted once, by
the owning engine, instead of the internal tail double counting as a
``count`` run.  :class:`CountBasedSession` runs the same chain in the
compiled kernel (:class:`~repro.engine.jit.KernelJumpChain`) whenever
a native kernel backend is present, no ``on_effective`` callback is
set and any stability predicate has a signature.

Limitation: the derivation requires the uniform scheduler (the one the
paper simulates); for other schedulers use the agent-based engine.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Sequence

import numpy as np

from ..core.protocol import Protocol, StabilitySignature
from ..core.rng import SeedLike
from .base import Engine, StepCallback
from .sampling import FenwickWeights
from .session import EngineSession

__all__ = ["ChainTables", "CountBasedEngine", "CountBasedSession", "JumpChain"]

_RAND_BLOCK = 4096


class ChainTables:
    """Read-only jump-chain tables of one (protocol, population size).

    :meth:`of` builds them once per pair and every :class:`JumpChain`,
    :class:`~repro.engine.jit.KernelJumpChain` and kernel-running
    :class:`~repro.engine.batch.BatchSession` of that pair shares
    them.  Campaign workers run chains of one protocol on several
    threads, so nothing here is written after construction: the Python
    columns are tuples and the kernel arrays are read-only.  The
    per-execution state — counts, Fenwick weights, random block, kernel
    registers — lives on the chain.
    """

    __slots__ = (
        "compiled", "classes", "in1", "in2", "out1", "out2", "same", "mult",
        "affected", "T", "pred", "kernel_arrays",
    )

    def __init__(self, protocol: Protocol, n_total: int) -> None:
        compiled = protocol.compiled
        classes = compiled.classes
        state_classes = compiled.state_classes
        self.compiled = compiled
        self.classes = tuple(classes)
        self.in1 = tuple(c.in1 for c in classes)
        self.in2 = tuple(c.in2 for c in classes)
        self.out1 = tuple(c.out1 for c in classes)
        self.out2 = tuple(c.out2 for c in classes)
        self.same = tuple(c.same for c in classes)
        self.mult = tuple(c.multiplier for c in classes)

        # Per class, the classes whose weights can change when it fires
        # (those sharing any of its four touched states).  This keeps
        # the per-event update loop allocation-free.
        affected: list[tuple[int, ...]] = []
        for c in classes:
            dirty: set[int] = set()
            for s in {c.in1, c.in2, c.out1, c.out2}:
                dirty.update(state_classes[s])
            affected.append(tuple(sorted(dirty)))
        self.affected = tuple(affected)

        # Ordered distinct pairs: the scheduler's sample space.
        self.T = n_total * (n_total - 1)
        self.pred = protocol.stability_predicate(n_total)
        if self.pred is None:
            # No predicate: silence is the criterion, which the kernel
            # tests natively under an empty signature.
            signature = StabilitySignature(groups=())
        else:
            signature = protocol.stability_signature(n_total)
        #: Positional class, affected-CSR and signature arguments of the
        #: ``jump_chain`` kernel (the ``pair_block`` kernel takes the
        #: class and signature arrays); None when the predicate has no
        #: signature, so only the Python loops can test stability.
        self.kernel_arrays = (
            None if signature is None else self._kernel_arrays(signature)
        )

    def _kernel_arrays(self, signature: StabilitySignature) -> tuple[np.ndarray, ...]:
        aff_off = np.zeros(len(self.affected) + 1, dtype=np.int64)
        aff_off[1:] = np.cumsum([len(dirty) for dirty in self.affected])
        aff_idx = [j for dirty in self.affected for j in dirty]
        arrays = (
            *(
                np.asarray(column, dtype=np.int64)
                for column in (
                    self.in1, self.in2, self.out1, self.out2, self.same, self.mult
                )
            ),
            aff_off,
            np.asarray(aff_idx, dtype=np.int64),
            *signature.arrays(),
        )
        for array in arrays:
            array.flags.writeable = False
        return arrays

    @classmethod
    def of(cls, protocol: Protocol, n_total: int) -> "ChainTables":
        """The shared tables of ``(protocol, n_total)``, built on first use."""
        memo = _TABLES.get(protocol)
        if memo is None:
            memo = _TABLES.setdefault(protocol, {})
        tables = memo.get(n_total)
        if tables is None:
            # Racing builders make equal tables; every caller ends up
            # sharing whichever landed first.
            tables = memo.setdefault(n_total, cls(protocol, n_total))
        return tables


#: Protocol -> {population size: ChainTables}; an entry lives as long
#: as its protocol.
_TABLES: "weakref.WeakKeyDictionary[Protocol, dict[int, ChainTables]]" = (
    weakref.WeakKeyDictionary()
)


class JumpChain:
    """Resumable jump-chain core of one execution.

    Mutates ``counts`` (a shared plain-int list) in place and advances
    the counters of a context object exposing ``interactions``,
    ``effective``, ``milestones``, ``_high_water``, ``_track``,
    ``_on_effective`` and ``_budget`` — the session attribute protocol.

    The first uniform block is drawn eagerly at construction, exactly
    like the monolithic engine drew it before entering its loop; pass
    ``draw=False`` only when restoring a snapshot that already carries
    a block.
    """

    def __init__(
        self,
        protocol: Protocol,
        counts: list[int],
        rng: np.random.Generator,
        n_total: int,
        *,
        draw: bool = True,
    ) -> None:
        self.tables = ChainTables.of(protocol, n_total)
        self.counts = counts
        self.rng = rng
        self.rebuild_weights()

        # Pre-drawn uniforms; two per effective interaction.
        self.rand = rng.random(_RAND_BLOCK) if draw else None
        self.rand_pos = 0
        self.converged = False
        self.silent = False
        self.exhausted = False
        self._pair_class: dict[tuple[int, int], int] | None = None

    def rebuild_weights(self) -> None:
        """(Re)derive the Fenwick weights from the current counts."""
        counts = self.counts
        t = self.tables
        in1, in2, same, mult = t.in1, t.in2, t.same, t.mult

        def class_weight(r: int) -> int:
            if same[r]:
                c = counts[in1[r]]
                return c * (c - 1)
            return mult[r] * counts[in1[r]] * counts[in2[r]]

        self.weights = FenwickWeights(class_weight(r) for r in range(len(in1)))

    # ------------------------------------------------------------------
    # The jump-chain loop
    # ------------------------------------------------------------------
    def advance(self, ctx, target: int) -> None:
        """Advance until ``ctx.interactions`` reaches ``target``, the
        configuration stabilizes or goes silent, or the run budget is
        exhausted.  Terminal flags land on ``self``; counters on ``ctx``."""
        counts = self.counts
        weights = self.weights
        fen_set = weights.set
        fen_find = weights.find
        W = weights.total
        t = self.tables
        T = t.T
        pred = t.pred
        in1, in2 = t.in1, t.in2
        out1, out2 = t.out1, t.out2
        same, mult = t.same, t.mult
        affected = t.affected
        rng = self.rng
        rand = self.rand
        rand_pos = self.rand_pos
        budget = ctx._budget
        track = ctx._track
        on_effective = ctx._on_effective
        interactions = ctx.interactions
        effective = ctx.effective
        milestones = ctx.milestones
        high_water = ctx._high_water
        log = math.log
        log1p = math.log1p

        converged = False
        silent = False
        exhausted = False
        while True:
            if pred is not None:
                if pred(counts):
                    converged = True
                    silent = W == 0
                    break
            if W == 0:
                # Silent: nothing can ever change again.  Without an
                # explicit predicate this is the stability criterion.
                silent = True
                converged = pred is None
                break
            if interactions >= target:
                # Slice boundary (or exact budget hit): pause without
                # consuming any randomness.
                break

            # --- geometric null skip ------------------------------------
            if rand_pos >= _RAND_BLOCK - 2:
                rand = rng.random(_RAND_BLOCK)
                rand_pos = 0
            if W >= T:
                nulls = 0
            else:
                u = 1.0 - rand[rand_pos]  # in (0, 1]
                rand_pos += 1
                nulls = int(log(u) / log1p(-W / T))
            if interactions + nulls + 1 > budget:
                interactions = budget
                exhausted = True
                break
            interactions += nulls + 1

            # --- sample the effective class -----------------------------
            # Inverse-CDF search on the Fenwick tree: O(log R), same
            # class a linear first-prefix-exceeding scan would pick.
            r = fen_find(rand[rand_pos] * W)
            rand_pos += 1

            # --- apply it ------------------------------------------------
            i1 = in1[r]
            i2 = in2[r]
            o1 = out1[r]
            o2 = out2[r]
            counts[i1] -= 1
            counts[i2] -= 1
            counts[o1] += 1
            counts[o2] += 1
            effective += 1

            # --- incremental weight maintenance ---------------------------
            for j in affected[r]:
                if same[j]:
                    c = counts[in1[j]]
                    fen_set(j, c * (c - 1))
                else:
                    fen_set(j, mult[j] * counts[in1[j]] * counts[in2[j]])
            W = weights.total

            if track is not None:
                cur = counts[track]
                while high_water < cur:
                    high_water += 1
                    milestones.append(interactions)
            if on_effective is not None:
                on_effective(interactions, counts)

        self.rand = rand
        self.rand_pos = rand_pos
        self.converged = converged
        self.silent = silent
        self.exhausted = exhausted
        ctx.interactions = interactions
        ctx.effective = effective
        ctx._high_water = high_water

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------
    def capture(self) -> dict:
        """Chain-private snapshot payload (counts are captured by the
        owner; Fenwick weights are rederived from them on restore)."""
        return {
            "rand": None if self.rand is None else self.rand.copy(),
            "rand_pos": self.rand_pos,
            "rng": EngineSession._rng_state(self.rng),
            "converged": self.converged,
            "silent": self.silent,
            "exhausted": self.exhausted,
        }

    def apply_capture(self, payload: dict) -> np.random.Generator:
        """Adopt a :meth:`capture` payload; returns the restored RNG."""
        rand = payload["rand"]
        self.rand = None if rand is None else np.asarray(rand, dtype=np.float64)
        self.rand_pos = payload["rand_pos"]
        self.rng = EngineSession._rng_from_state(payload["rng"])
        # bool(): snapshots taken before the kernel chain reported plain
        # bools may carry numpy bools.
        self.converged = bool(payload["converged"])
        self.silent = bool(payload["silent"])
        self.exhausted = bool(payload["exhausted"])
        return self.rng

    # ------------------------------------------------------------------
    # Driven execution
    # ------------------------------------------------------------------
    def pair_class(self, p: int, q: int) -> int | None:
        """Class index realized by the ordered state pair, None if null."""
        pc = self._pair_class
        if pc is None:
            pc = {}
            for r, c in enumerate(self.tables.classes):
                pc[(c.in1, c.in2)] = r
                if not c.same and c.multiplier == 2:
                    pc[(c.in2, c.in1)] = r
            self._pair_class = pc
        return pc.get((p, q))

    def apply_pair(self, p: int, q: int) -> bool:
        """Apply one externally scheduled ordered state pair (the jump
        chain never sees agent identities); True when effective."""
        r = self.pair_class(p, q)
        if r is None:
            return False
        counts = self.counts
        t = self.tables
        in1, in2, same, mult = t.in1, t.in2, t.same, t.mult
        counts[in1[r]] -= 1
        counts[in2[r]] -= 1
        counts[t.out1[r]] += 1
        counts[t.out2[r]] += 1
        fen_set = self.weights.set
        for j in t.affected[r]:
            if same[j]:
                c = counts[in1[j]]
                fen_set(j, c * (c - 1))
            else:
                fen_set(j, mult[j] * counts[in1[j]] * counts[in2[j]])
        return True

    def audit(self) -> str | None:
        true_w = self.tables.compiled.total_active_weight(
            np.asarray(self.counts, dtype=np.int64)
        )
        if self.weights.total != true_w:
            return (
                f"Fenwick active weight {self.weights.total} != "
                f"recomputed {true_w}"
            )
        return None


class CountBasedSession(EngineSession):
    """Stepper for :class:`CountBasedEngine`: one :class:`JumpChain`."""

    def __init__(
        self,
        engine: "CountBasedEngine",
        protocol: Protocol,
        n: int | None,
        *,
        seed: SeedLike,
        initial_counts: Sequence[int] | np.ndarray | None,
        max_interactions: int | None,
        track_state: str | int | None,
        on_effective: StepCallback | None,
    ) -> None:
        super().__init__(
            engine.name,
            protocol,
            n,
            seed=seed,
            initial_counts=initial_counts,
            max_interactions=max_interactions,
            track_state=track_state,
            on_effective=on_effective,
        )
        self._chain = self._make_chain(draw=True)

    def _make_chain(self, *, draw: bool = True) -> JumpChain:
        """The compiled-kernel chain when it can run, else the Python loop.

        The kernel cannot call ``on_effective`` back and tests stability
        only through a :class:`~repro.core.protocol.StabilitySignature`.
        On the pure-Python kernel backend the Python loop is the faster
        of the two bodies, so it runs there too.
        """
        if (
            self._on_effective is None
            and ChainTables.of(self._protocol, self._n).kernel_arrays is not None
        ):
            # Imported here: the kernels load with the first session.
            from .jit import KernelJumpChain
            from .kernels import get_kernels

            if get_kernels().native:
                return KernelJumpChain(
                    self._protocol, self.counts, self._rng, self._n, draw=draw
                )
        return JumpChain(self._protocol, self.counts, self._rng, self._n, draw=draw)

    def _advance_inner(self, target: int) -> None:
        chain = self._chain
        chain.advance(self, target)
        self._converged = chain.converged
        self._halted = chain.silent and not chain.converged

    def _silent_now(self) -> bool:
        return self._chain.silent

    def _capture(self) -> dict:
        return {"counts": list(self.counts), "chain": self._chain.capture()}

    def _restore(self, extra: dict) -> None:
        self.counts = list(extra["counts"])
        self._chain = self._make_chain(draw=False)
        self._rng = self._chain.apply_capture(extra["chain"])

    def apply_scheduled(self, a: int, b: int, p: int, q: int) -> bool:
        return self._chain.apply_pair(p, q)

    def audit(self) -> str | None:
        return self._chain.audit()


class CountBasedEngine(Engine):
    """Jump-chain engine: O(log #rules) per effective interaction."""

    name = "count"

    def start(
        self,
        protocol: Protocol,
        n: int | None = None,
        *,
        seed: SeedLike = None,
        initial_counts: Sequence[int] | np.ndarray | None = None,
        max_interactions: int | None = None,
        track_state: str | int | None = None,
        on_effective: StepCallback | None = None,
    ) -> CountBasedSession:
        return CountBasedSession(
            self,
            protocol,
            n,
            seed=seed,
            initial_counts=initial_counts,
            max_interactions=max_interactions,
            track_state=track_state,
            on_effective=on_effective,
        )
