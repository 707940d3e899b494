"""Batched uniform-scheduler engine: the one pair-loop session.

Semantically identical to
:class:`~repro.engine.agent_based.AgentBasedEngine` with the uniform
scheduler, but with the pair sampling inlined and the loop body kept
free of any indirection.  Given the same seed and block size, this
engine consumes exactly the same random stream as the agent-based
engine and therefore reproduces the *identical* execution — the test
suite uses that for cross-validation.

Use this engine for moderate workloads where per-interaction fidelity
matters (e.g. recording callbacks at exact interaction indices); use
the count-based engine when only counts and totals matter.

:class:`BatchSession` is the only pair-draw/apply loop.  ``batch``,
``batch-jit`` (the same engine under a second name) and ``graph``
(:mod:`~repro.engine.graph_batch`, which swaps the pair sampler) all
run it.  It runs the compiled ``pair_block`` kernel of
:mod:`repro.engine.kernels` when a native backend is present, no
``on_effective`` callback is set and any stability predicate has a
:class:`~repro.core.protocol.StabilitySignature`; otherwise it runs
its Python loop, which the kernel matches bit for bit.  Snapshots
carry the RNG state and the unconsumed tail of the current pair block
(see :mod:`repro.engine.session` for the bit-identity discipline), so
they move freely between the two loops.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property

import numpy as np

from ..core.protocol import Protocol
from ..core.rng import SeedLike
from .base import Engine, StepCallback
from .count_based import ChainTables
from .kernels import KERNEL_CONVERGED, KERNEL_REFILL, get_kernels
from .session import EngineSession

__all__ = ["BatchEngine", "BatchSession"]


class BatchSession(EngineSession):
    """Stepper for :class:`BatchEngine`: inlined uniform pair sampling
    plus incrementally maintained total active weight."""

    def __init__(
        self,
        engine: "BatchEngine",
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
        compiled = protocol.compiled
        self._S = compiled.num_states
        self._dflat = compiled.delta_list
        self._classes = compiled.classes
        self._state_classes = compiled.state_classes
        self._pred = protocol.stability_predicate(self._n)
        self._block = engine._block_size
        states: list[int] = []
        for idx, c in enumerate(self.counts):
            states.extend([idx] * c)
        self._states = states
        self._init_weights()
        # Unconsumed tail of the current pre-sampled pair block.
        self._buf_a: list[int] = []
        self._buf_b: list[int] = []
        self._pos = 0

    def _init_weights(self) -> None:
        # Total active weight, maintained incrementally: after each
        # effective interaction only the classes sharing a touched state
        # are refreshed, so the silence test is an O(1) comparison
        # instead of a rescan of every class.
        self._weights = [cls.weight(self.counts) for cls in self._classes]
        self._W = sum(self._weights)
        # pq rule key -> indices of classes whose weight the rule can
        # change (lazily cached; the reachable rule set is small).
        self._dirty_by_pq: dict[int, list[int]] = {}

    def _dirty(self, pq: int) -> list[int]:
        """Classes whose weight the effective rule ``pq`` can change."""
        dirty = self._dirty_by_pq.get(pq)
        if dirty is None:
            S = self._S
            p, q = divmod(pq, S)
            p2, q2 = divmod(self._dflat[pq], S)
            touched: set[int] = set()
            for s in (p, q, p2, q2):
                touched.update(self._state_classes[s])
            dirty = sorted(touched)
            self._dirty_by_pq[pq] = dirty
        return dirty

    # ------------------------------------------------------------------
    # Stepper
    # ------------------------------------------------------------------
    def _silent_now(self) -> bool:
        return self._W == 0

    def _sample_pairs(self, take: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw the next ``take`` scheduled pairs from ``self._rng``.

        The uniform draw lives here (rather than inline in the loop) so
        subclasses can swap the pair distribution — the graph engine
        overrides this with edge sampling — while inheriting the whole
        advance/snapshot/driven machinery, and the kernel, unchanged.
        Called once per block refill, so the indirection costs nothing
        measurable.
        """
        rng = self._rng
        n_total = self._n
        a_arr = rng.integers(0, n_total, size=take)
        b_arr = rng.integers(0, n_total - 1, size=take)
        b_arr += b_arr >= a_arr
        return a_arr, b_arr

    @cached_property
    def _pair_kernel(self) -> tuple | None:
        """The compiled ``pair_block`` and its table arguments, or None
        when this session must run the Python loop.

        The kernel cannot call ``on_effective`` back, tests stability
        only through a signature (the shared :class:`ChainTables` decide
        that), and exists only on a native backend.  Decided on the
        first advance, so driven sessions never load the kernels.
        """
        if self._on_effective is not None:
            return None
        arrays = ChainTables.of(self._protocol, self._n).kernel_arrays
        kernels = get_kernels()
        if arrays is None or not kernels.native:
            return None
        in1, in2, _, _, same, mult, _, _, sig_off, sig_idx, sig_want = arrays
        # Dirty-class CSR over every rule key pq (rows empty for nulls).
        S = self._S
        dflat = self._dflat
        pq_off = np.zeros(S * S + 1, dtype=np.int64)
        pq_idx: list[int] = []
        for pq in range(S * S):
            if dflat[pq] != pq:
                pq_idx.extend(self._dirty(pq))
            pq_off[pq + 1] = len(pq_idx)
        tables = (
            np.asarray(dflat, dtype=np.int64), in1, in2, same, mult,
            pq_off, np.asarray(pq_idx, dtype=np.int64),
            sig_off, sig_idx, sig_want,
        )
        return kernels.pair_block, tables

    def _advance_inner(self, target: int) -> None:
        kernel = self._pair_kernel
        if kernel is not None:
            self._advance_kernel(*kernel, target)
            return
        counts = self.counts
        states = self._states
        S = self._S
        dflat = self._dflat
        pred = self._pred
        classes = self._classes
        weights = self._weights
        W_active = self._W
        dirty_by_pq = self._dirty_by_pq
        sample_pairs = self._sample_pairs
        track = self._track
        on_effective = self._on_effective
        budget = self._budget
        block = self._block
        interactions = self.interactions
        effective = self.effective
        milestones = self.milestones
        high_water = self._high_water
        buf_a = self._buf_a
        buf_b = self._buf_b
        pos = self._pos

        def is_stable() -> bool:
            return pred(counts) if pred is not None else W_active == 0

        converged = is_stable()
        while not converged and interactions < target:
            if pos >= len(buf_a):
                take = min(block, budget - interactions)
                a_arr, b_arr = sample_pairs(take)
                buf_a = a_arr.tolist()
                buf_b = b_arr.tolist()
                pos = 0
            end = min(len(buf_a), pos + (target - interactions))
            seg_a = buf_a[pos:end]
            seg_b = buf_b[pos:end]
            before = interactions
            for a, b in zip(seg_a, seg_b):
                interactions += 1
                p = states[a]
                q = states[b]
                pq = p * S + q
                out = dflat[pq]
                if out == pq:
                    continue
                p2, q2 = divmod(out, S)
                states[a] = p2
                states[b] = q2
                counts[p] -= 1
                counts[q] -= 1
                counts[p2] += 1
                counts[q2] += 1
                effective += 1
                dirty = dirty_by_pq.get(pq)
                if dirty is None:
                    dirty = self._dirty(pq)
                for j in dirty:
                    w = classes[j].weight(counts)
                    W_active += w - weights[j]
                    weights[j] = w
                if track is not None:
                    cur = counts[track]
                    while high_water < cur:
                        high_water += 1
                        milestones.append(interactions)
                if on_effective is not None:
                    on_effective(interactions, counts)
                if is_stable():
                    converged = True
                    break
            pos += interactions - before

        self._buf_a = buf_a
        self._buf_b = buf_b
        self._pos = pos
        self._W = W_active
        self.interactions = interactions
        self.effective = effective
        self._high_water = high_water
        self._converged = converged

    def _advance_kernel(self, pair_block, tables: tuple, target: int) -> None:
        """:meth:`_advance_inner` through the compiled kernel."""
        states = np.asarray(self._states, dtype=np.int64)
        counts = np.asarray(self.counts, dtype=np.int64)
        weights = np.asarray(self._weights, dtype=np.int64)
        buf_a = np.asarray(self._buf_a, dtype=np.int64)
        buf_b = np.asarray(self._buf_b, dtype=np.int64)
        dflat, in1, in2, same, mult, pq_off, pq_idx, sig_off, sig_idx, sig_want = tables
        reg = np.asarray(
            [self._pos, self.interactions, self.effective, self._W,
             self._high_water, 0],
            dtype=np.int64,
        )
        ms_buf = np.empty(self._n + 2, dtype=np.int64)
        track = -1 if self._track is None else self._track
        while True:
            status = pair_block(
                states, counts, dflat, in1, in2, same, mult, weights,
                pq_off, pq_idx, sig_off, sig_idx, sig_want,
                buf_a, buf_b, ms_buf, reg, self._S, target, track,
            )
            ms_len = int(reg[5])
            if ms_len:
                self.milestones.extend(ms_buf[:ms_len].tolist())
            if status != KERNEL_REFILL:
                break
            # The same block draw the Python loop makes, at the same
            # interaction count: an identical random stream.
            a_arr, b_arr = self._sample_pairs(
                min(self._block, self._budget - int(reg[1]))
            )
            buf_a = np.ascontiguousarray(a_arr, dtype=np.int64)
            buf_b = np.ascontiguousarray(b_arr, dtype=np.int64)
            reg[0] = 0

        self._states = states.tolist()
        self.counts[:] = counts.tolist()
        self._weights = weights.tolist()
        self._buf_a = buf_a.tolist()
        self._buf_b = buf_b.tolist()
        self._pos = int(reg[0])
        self.interactions = int(reg[1])
        self.effective = int(reg[2])
        self._W = int(reg[3])
        self._high_water = int(reg[4])
        self._converged = status == KERNEL_CONVERGED

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def _capture(self) -> dict:
        return {
            "counts": list(self.counts),
            "states": list(self._states),
            "rng": self._rng_state(self._rng),
            "buf_a": self._buf_a[self._pos:],
            "buf_b": self._buf_b[self._pos:],
        }

    def _restore(self, extra: dict) -> None:
        self.counts = list(extra["counts"])
        self._states = list(extra["states"])
        self._rng = self._rng_from_state(extra["rng"])
        self._buf_a = list(extra["buf_a"])
        self._buf_b = list(extra["buf_b"])
        self._pos = 0
        # Weights are a pure function of the counts: recompute instead
        # of shipping them (integer arithmetic, so exactly identical).
        self._init_weights()

    # ------------------------------------------------------------------
    # Driven execution
    # ------------------------------------------------------------------
    def apply_scheduled(self, a: int, b: int, p: int, q: int) -> bool:
        states = self._states
        S = self._S
        p_own = states[a]
        q_own = states[b]
        pq = p_own * S + q_own
        out = self._dflat[pq]
        if out == pq:
            return False
        p2, q2 = divmod(out, S)
        counts = self.counts
        counts[p_own] -= 1
        counts[q_own] -= 1
        counts[p2] += 1
        counts[q2] += 1
        states[a] = p2
        states[b] = q2
        for j in self._dirty(pq):
            w = self._classes[j].weight(counts)
            self._W += w - self._weights[j]
            self._weights[j] = w
        return True

    def audit(self) -> str | None:
        true_w = self._protocol.compiled.total_active_weight(
            np.asarray(self.counts, dtype=np.int64)
        )
        if self._W != true_w:
            return f"incremental active weight {self._W} != recomputed {true_w}"
        return None


class BatchEngine(Engine):
    """Tight-loop uniform-scheduler engine with block pair sampling."""

    name = "batch"
    _session_cls: type[BatchSession] = BatchSession

    def __init__(self, block_size: int = 4096) -> None:
        if block_size < 1:
            raise ValueError(f"block_size must be positive, got {block_size}")
        self._block_size = block_size

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
    ) -> BatchSession:
        return self._session_cls(
            self,
            protocol,
            n,
            seed=seed,
            initial_counts=initial_counts,
            max_interactions=max_interactions,
            track_state=track_state,
            on_effective=on_effective,
        )
