"""Kernel tier: the compiled jump chain, ``count-jit`` and ``batch-jit``.

:class:`KernelJumpChain` runs the jump chain of
:mod:`~repro.engine.count_based` through the compiled kernels of
:mod:`repro.engine.kernels`.  There is no separate count-kernel engine:
:class:`~repro.engine.count_based.CountBasedSession` builds a
``KernelJumpChain`` whenever it can, and ``count-jit`` is the ``count``
engine under a second name, kept so JobSpec digests and trial-cache
keys stay valid.  ``batch-jit`` is the
:class:`~repro.engine.batch.BatchEngine` with its pair-draw/apply loop
routed through the kernel.  The science is bit-identical to the Python
loops by construction:

* kernels consume the *same* pre-drawn random buffers the Python loops
  draw (and snapshot), at the same stream positions — they never touch
  the Generator themselves;
* all weight arithmetic is exact integer arithmetic below 2**53, so the
  kernels' float comparisons decide identically to Python's;
* the geometric null-skip uses the same libm ``log``/``log1p`` calls
  CPython's :mod:`math` module makes.

The kernel path requires the loop to be *callback-free* and the
stability test to be *declarative*:

* a per-effective-interaction ``on_effective`` callback forces the pure
  Python loop (the kernel cannot call back out);
* a stability predicate is only usable when the protocol also provides
  the equivalent :class:`~repro.core.protocol.StabilitySignature`.

When either condition fails — or when no native backend is available
(``REPRO_KERNEL=python``) — the sessions run the pure-Python loops, so
every engine name is *always* safe to select.  Snapshot payloads,
driven execution (``apply_scheduled``/``audit``) and restore validation
are shared with the Python loops, which keeps the kernel paths fully
covered by the session-contract and conformance suites.
"""

from __future__ import annotations

import numpy as np

from ..core.protocol import Protocol, StabilitySignature
from .batch import BatchEngine, BatchSession
from .count_based import _RAND_BLOCK, CountBasedEngine, JumpChain
from .kernels import (
    KERNEL_CONVERGED,
    KERNEL_EXHAUSTED,
    KERNEL_REFILL,
    KERNEL_SILENT,
    get_kernels,
)
from .sampling import FenwickWeights

__all__ = [
    "JitCountEngine",
    "JitBatchEngine",
    "JitBatchSession",
    "KernelJumpChain",
]


class KernelJumpChain(JumpChain):
    """A :class:`JumpChain` whose :meth:`advance` runs in the kernel.

    Everything else — construction, snapshot capture/restore, driven
    ``apply_pair``/``audit`` — is inherited, so snapshots interoperate
    and the conformance differ exercises the same data structures the
    kernel consumes.  The class tables come from the shared read-only
    :class:`~repro.engine.count_based.ChainTables`; only the registers
    and the milestone buffer the kernel writes are per chain.
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
        super().__init__(protocol, counts, rng, n_total, draw=draw)
        if self.tables.kernel_arrays is None:
            raise ValueError(
                "KernelJumpChain needs a stability signature when the "
                "protocol has a stability predicate"
            )
        self._kernels = get_kernels()
        self._ms_buf = np.zeros(n_total + 2, dtype=np.int64)
        self._reg = np.zeros(6, dtype=np.int64)

    def advance(self, ctx, target: int) -> None:
        counts_arr = np.asarray(self.counts, dtype=np.int64)
        values = np.asarray(self.weights.to_list(), dtype=np.int64)
        reg = self._reg
        reg[0] = self.rand_pos
        reg[1] = ctx.interactions
        reg[2] = ctx.effective
        reg[3] = self.weights.total
        reg[4] = ctx._high_water
        reg[5] = 0
        track = -1 if ctx._track is None else ctx._track
        budget = ctx._budget
        if self.rand is None:  # pragma: no cover — restore always refills
            self.rand = self.rng.random(_RAND_BLOCK)
            reg[0] = 0
        kern = self._kernels.jump_chain
        arrays = self.tables.kernel_arrays
        T = self.tables.T
        ms_buf = self._ms_buf
        milestones = ctx.milestones
        while True:
            status = kern(
                counts_arr, values, *arrays,
                self.rand, ms_buf, reg,
                T, target, budget, track,
            )
            ms_len = int(reg[5])
            if ms_len:
                milestones.extend(ms_buf[:ms_len].tolist())
            if status == KERNEL_REFILL:
                # The wrapper owns the Generator: refill at exactly the
                # stream position the pure-Python loop refills at.
                self.rand = self.rng.random(_RAND_BLOCK)
                reg[0] = 0
                continue
            break

        self.counts[:] = counts_arr.tolist()
        self.weights = FenwickWeights(values.tolist())
        self.rand_pos = int(reg[0])
        self.converged = status == KERNEL_CONVERGED
        # int(): comparing the int64 register itself would make
        # ``silent`` a numpy.bool, which JSON cannot encode.
        self.silent = status == KERNEL_SILENT or (
            status == KERNEL_CONVERGED and int(reg[3]) == 0
        )
        if status == KERNEL_SILENT and self.tables.pred is None:
            self.converged = True
        self.exhausted = status == KERNEL_EXHAUSTED
        ctx.interactions = int(reg[1])
        ctx.effective = int(reg[2])
        ctx._high_water = int(reg[4])


class JitCountEngine(CountBasedEngine):
    """The ``count`` engine under the name ``count-jit``.

    ``count`` already runs the compiled kernel whenever it can; the name
    is kept so results, JobSpec digests and trial-cache keys recorded
    under it stay valid.
    """

    name = "count-jit"


class JitBatchSession(BatchSession):
    """Batch stepper whose pair-draw/apply loop runs in the kernel."""

    def __init__(self, engine, protocol, n, **kwargs) -> None:
        super().__init__(engine, protocol, n, **kwargs)
        signature = (
            protocol.stability_signature(self._n)
            if self._pred is not None
            else None
        )
        self._use_kernel = self._on_effective is None and (
            self._pred is None or signature is not None
        )
        if not self._use_kernel:
            return
        self._kernels = get_kernels()
        compiled = protocol.compiled
        self._kdflat = np.asarray(compiled.delta_flat, dtype=np.int64)
        classes = compiled.classes
        self._kin1 = np.asarray([c.in1 for c in classes], dtype=np.int64)
        self._kin2 = np.asarray([c.in2 for c in classes], dtype=np.int64)
        self._ksame = np.asarray(
            [1 if c.same else 0 for c in classes], dtype=np.int64
        )
        self._kmult = np.asarray([c.multiplier for c in classes], dtype=np.int64)
        # Dirty-class CSR over every rule key pq (rows empty for nulls):
        # the kernel-side replacement for the lazily cached dict.
        S = self._S
        state_classes = compiled.state_classes
        dflat = self._dflat
        pq_off = np.zeros(S * S + 1, dtype=np.int64)
        pq_idx: list[int] = []
        for pq in range(S * S):
            out = dflat[pq]
            if out != pq:
                p, q = divmod(pq, S)
                p2, q2 = divmod(out, S)
                touched: set[int] = set()
                for s in (p, q, p2, q2):
                    touched.update(state_classes[s])
                pq_idx.extend(sorted(touched))
            pq_off[pq + 1] = len(pq_idx)
        self._pq_off = pq_off
        self._pq_idx = np.asarray(pq_idx, dtype=np.int64)
        if signature is not None:
            self._sig_off, self._sig_idx, self._sig_want = signature.arrays()
        else:
            # No signature: the kernel then tests silence.
            self._sig_off, self._sig_idx, self._sig_want = StabilitySignature(
                groups=()
            ).arrays()
        self._ms_buf = np.zeros(self._n + 2, dtype=np.int64)
        self._reg = np.zeros(6, dtype=np.int64)

    def _advance_inner(self, target: int) -> None:
        if not self._use_kernel:
            super()._advance_inner(target)
            return
        counts_arr = np.asarray(self.counts, dtype=np.int64)
        states_arr = np.asarray(self._states, dtype=np.int64)
        weights_arr = np.asarray(self._weights, dtype=np.int64)
        buf_a = np.asarray(self._buf_a, dtype=np.int64)
        buf_b = np.asarray(self._buf_b, dtype=np.int64)
        reg = self._reg
        reg[0] = self._pos
        reg[1] = self.interactions
        reg[2] = self.effective
        reg[3] = self._W
        reg[4] = self._high_water
        reg[5] = 0
        track = -1 if self._track is None else self._track
        rng = self._rng
        n_total = self._n
        budget = self._budget
        block = self._block
        kern = self._kernels.pair_block
        ms_buf = self._ms_buf
        while True:
            status = kern(
                states_arr, counts_arr, self._kdflat,
                self._kin1, self._kin2, self._ksame, self._kmult,
                weights_arr,
                self._pq_off, self._pq_idx,
                self._sig_off, self._sig_idx, self._sig_want,
                buf_a, buf_b, ms_buf, reg,
                self._S, target, track,
            )
            ms_len = int(reg[5])
            if ms_len:
                self.milestones.extend(ms_buf[:ms_len].tolist())
            if status == KERNEL_REFILL:
                # Same block draw the pure-Python loop makes, at the
                # same interaction count — identical random stream.
                take = min(block, budget - int(reg[1]))
                a_arr = rng.integers(0, n_total, size=take)
                b_arr = rng.integers(0, n_total - 1, size=take)
                b_arr += b_arr >= a_arr
                buf_a = np.ascontiguousarray(a_arr, dtype=np.int64)
                buf_b = np.ascontiguousarray(b_arr, dtype=np.int64)
                reg[0] = 0
                continue
            break

        self._states = states_arr.tolist()
        self.counts[:] = counts_arr.tolist()
        self._weights = weights_arr.tolist()
        self._buf_a = buf_a.tolist()
        self._buf_b = buf_b.tolist()
        self._pos = int(reg[0])
        self._W = int(reg[3])
        self.interactions = int(reg[1])
        self.effective = int(reg[2])
        self._high_water = int(reg[4])
        self._converged = status == KERNEL_CONVERGED


class JitBatchEngine(BatchEngine):
    """Batch engine running the compiled kernel tier."""

    name = "batch-jit"
    _session_cls = JitBatchSession
