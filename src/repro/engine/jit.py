"""Kernel wrapper of the jump chain, and the ``-jit`` engine names.

:class:`KernelJumpChain` runs the jump chain of
:mod:`~repro.engine.count_based` through the compiled kernels of
:mod:`repro.engine.kernels`.  There are no separate kernel engines:
:class:`~repro.engine.count_based.CountBasedSession` builds a
``KernelJumpChain`` whenever it can, and
:class:`~repro.engine.batch.BatchSession` runs the compiled pair loop
whenever it can.  ``count-jit`` and ``batch-jit`` are ``count`` and
``batch`` under second names, kept so JobSpec digests and trial-cache
keys stay valid.  The science is bit-identical to the Python loops by
construction:

* kernels consume the *same* pre-drawn random buffers the Python loops
  draw (and snapshot), at the same stream positions — they never touch
  the Generator themselves;
* all weight arithmetic is exact integer arithmetic below 2**53, so the
  kernels' float comparisons decide identically to Python's;
* the geometric null-skip uses the same libm ``log``/``log1p`` calls
  CPython's :mod:`math` module makes.

The kernel path requires the loop to be *callback-free*, the stability
test to be *declarative* and the backend to be native:

* a per-effective-interaction ``on_effective`` callback forces the
  Python loop (the kernel cannot call back out);
* a stability predicate is only usable when the protocol also provides
  the equivalent :class:`~repro.core.protocol.StabilitySignature`
  (:attr:`~repro.engine.count_based.ChainTables.kernel_arrays` is
  ``None`` otherwise);
* under ``REPRO_KERNEL=python`` there are no kernels.

When any condition fails the sessions run their Python loops, so every
engine name is *always* safe to select.  Snapshot payloads, driven
execution (``apply_scheduled``/``audit``) and restore validation are
shared by both loops, which keeps the kernel paths fully covered by the
session-contract and conformance suites.
"""

from __future__ import annotations

import numpy as np

from ..core.protocol import Protocol
from .batch import BatchEngine
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


class JitBatchEngine(BatchEngine):
    """The ``batch`` engine under the name ``batch-jit``.

    ``batch`` already runs the compiled pair kernel whenever it can; the
    name is kept so results, JobSpec digests and trial-cache keys
    recorded under it stay valid.
    """

    name = "batch-jit"
