"""The one pair-loop session: block pair sampling over an agent array.

:class:`BatchSession` is the only pair-draw/apply loop of the
agent-level engines.  ``batch`` and ``batch-jit`` (the same engine
under a second name) run it on the uniform scheduler, ``graph``
(:mod:`~repro.engine.graph_batch`) swaps its pair sampler for a random
edge draw, and ``agent`` (:mod:`~repro.engine.agent_based`) swaps it
for any :class:`~repro.scheduling.base.Scheduler`'s ``next_block``.
Every one of them draws :data:`~repro.engine.session.PAIR_BLOCK` pairs
per refill, so ``batch`` and ``agent`` with the uniform scheduler (both
call :func:`~repro.scheduling.uniform.uniform_pairs`) reproduce the
*identical* execution for the same seed.

Use these engines when per-interaction fidelity matters (e.g.
recording callbacks at exact interaction indices) or the scheduler is
not uniform; use the count-based engine when only counts and totals
matter.

The session runs the compiled ``pair_block`` kernel of
:mod:`repro.engine.kernels` when a native backend is present, no
``on_effective`` callback is set and any stability predicate has a
:class:`~repro.core.protocol.StabilitySignature`; otherwise it runs
its Python loop, which the kernel matches bit for bit.  Neither loop
carries class weights between advances: the Python loop tests
stability with the protocol's predicate, or silence with a scan of the
class weights, and the kernel recomputes the weights from the counts
each time it is entered.  Snapshots carry the RNG state and the
unconsumed tail of the current pair block (see
:mod:`repro.engine.session` for the bit-identity discipline), so they
move freely between the two loops.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property

import numpy as np

from ..core.protocol import Protocol
from ..core.rng import SeedLike
from ..scheduling.uniform import uniform_pairs
from .base import Engine, StepCallback
from .count_based import ChainTables
from .kernels import (
    KERNEL_CONVERGED,
    KERNEL_REFILL,
    address,
    arg_slot,
    bind_args,
    get_kernels,
)
from .session import PAIR_BLOCK, EngineSession

__all__ = ["BatchEngine", "BatchSession"]

#: Positions of the pair-block arguments a refill rebinds.
_BUF_A, _BUF_B, _N_BUF = (
    arg_slot("pair_block", name) for name in ("buf_a", "buf_b", "n_buf")
)


class BatchSession(EngineSession):
    """Stepper for :class:`BatchEngine`: an agent array stepped through
    blocks of pairs drawn by :meth:`_sample_pairs`."""

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
        self._pred = protocol.stability_predicate(self._n)
        states: list[int] = []
        for idx, c in enumerate(self.counts):
            states.extend([idx] * c)
        self._states = states
        # Unconsumed tail of the current pre-sampled pair block.
        self._buf_a: list[int] = []
        self._buf_b: list[int] = []
        self._pos = 0

    # ------------------------------------------------------------------
    # Stepper
    # ------------------------------------------------------------------
    def _silent_now(self) -> bool:
        counts = self.counts
        return all(cls.weight(counts) == 0 for cls in self._classes)

    def _sample_pairs(self, take: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw the next ``take`` scheduled pairs from ``self._rng``.

        A method (rather than a call inline in the loop) so subclasses
        can swap the pair distribution — the graph engine draws edges,
        the agent engine asks its scheduler — while inheriting the whole
        advance/snapshot/driven machinery, and the kernel, unchanged.
        Called once per block refill, so the indirection costs nothing
        measurable.
        """
        return uniform_pairs(self._rng, self._n, take)

    @cached_property
    def _pair_kernel(self) -> tuple | None:
        """The compiled ``pair_block``, its table arguments and their
        bound addresses, or None when this session must run the Python
        loop.

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
        # Dirty-class CSR over every rule key pq: the classes whose
        # weight an effective rule can change, those sharing one of its
        # four states (rows empty for nulls).
        S = self._S
        dflat = self._dflat
        state_classes = self._protocol.compiled.state_classes
        pq_off = np.zeros(S * S + 1, dtype=np.int64)
        pq_idx: list[int] = []
        for pq, out in enumerate(dflat):
            if out != pq:
                touched: set[int] = set()
                for s in (*divmod(pq, S), *divmod(out, S)):
                    touched.update(state_classes[s])
                pq_idx.extend(sorted(touched))
            pq_off[pq + 1] = len(pq_idx)
        tables = {
            "dflat": np.asarray(dflat, dtype=np.int64),
            "in1": in1, "in2": in2, "same": same, "mult": mult,
            "pq_off": pq_off, "pq_idx": np.asarray(pq_idx, dtype=np.int64),
            "sig_off": sig_off, "sig_idx": sig_idx, "sig_want": sig_want,
        }
        addrs = {name: address(array) for name, array in tables.items()}
        # ``tables`` stays referenced here while the addresses are used.
        return kernels.pair_block, tables, addrs

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
        silent = self._silent_now
        sample_pairs = self._sample_pairs
        track = self._track
        on_effective = self._on_effective
        budget = self._budget
        interactions = self.interactions
        effective = self.effective
        milestones = self.milestones
        high_water = self._high_water
        buf_a = self._buf_a
        buf_b = self._buf_b
        pos = self._pos

        def is_stable() -> bool:
            return pred(counts) if pred is not None else silent()

        converged = is_stable()
        while not converged and interactions < target:
            if pos >= len(buf_a):
                # Block-sized draws clipped by the *run* budget, never
                # the slice target: slicing must not change the stream.
                take = min(PAIR_BLOCK, budget - interactions)
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
        self.interactions = interactions
        self.effective = effective
        self._high_water = high_water
        self._converged = converged

    def _advance_kernel(
        self, pair_block, tables: dict, addrs: dict, target: int
    ) -> None:
        """:meth:`_advance_inner` through the compiled kernel.

        The kernel keeps the class weights up to date internally for its
        silence test; they are a pure function of the counts, so each
        advance computes them afresh and the session keeps none.
        """
        counts_list = self.counts
        weights = np.asarray(
            [cls.weight(counts_list) for cls in self._classes], dtype=np.int64
        )
        states = np.asarray(self._states, dtype=np.int64)
        counts = np.asarray(counts_list, dtype=np.int64)
        buf_a = np.asarray(self._buf_a, dtype=np.int64)
        buf_b = np.asarray(self._buf_b, dtype=np.int64)
        reg = np.asarray(
            [self._pos, self.interactions, self.effective, int(weights.sum()),
             self._high_water, 0],
            dtype=np.int64,
        )
        ms_buf = np.empty(self._n + 2, dtype=np.int64)
        args = bind_args(
            "pair_block",
            {
                **addrs,
                "states": address(states),
                "counts": address(counts),
                "weights": address(weights),
                "buf_a": address(buf_a),
                "buf_b": address(buf_b),
                "ms_buf": address(ms_buf),
                "reg": address(reg),
            },
            n_sig=len(tables["sig_want"]),
            n_buf=len(buf_a),
            S=self._S,
            target=target,
            track=-1 if self._track is None else self._track,
        )
        while True:
            status = pair_block(*args)
            ms_len = int(reg[5])
            if ms_len:
                self.milestones.extend(ms_buf[:ms_len].tolist())
            if status != KERNEL_REFILL:
                break
            # The same block draw the Python loop makes, at the same
            # interaction count: an identical random stream.
            a_arr, b_arr = self._sample_pairs(
                min(PAIR_BLOCK, self._budget - int(reg[1]))
            )
            buf_a = np.ascontiguousarray(a_arr, dtype=np.int64)
            buf_b = np.ascontiguousarray(b_arr, dtype=np.int64)
            args[_BUF_A] = address(buf_a)
            args[_BUF_B] = address(buf_b)
            args[_N_BUF] = len(buf_a)
            reg[0] = 0

        self._states = states.tolist()
        self.counts[:] = counts.tolist()
        self._buf_a = buf_a.tolist()
        self._buf_b = buf_b.tolist()
        self._pos = int(reg[0])
        self.interactions = int(reg[1])
        self.effective = int(reg[2])
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
        return True

    def audit(self) -> str | None:
        derived = [0] * self._S
        for s in self._states:
            derived[s] += 1
        if derived != list(self.counts):
            return f"agent states tally {derived} != counts {list(self.counts)}"
        return None


class BatchEngine(Engine):
    """Tight-loop uniform-scheduler engine with block pair sampling."""

    name = "batch"
    _session_cls: type[BatchSession] = BatchSession

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
