"""Kernel wrapper of the jump chain.

:class:`KernelJumpChain` runs the jump chain of
:mod:`~repro.engine.count_based` through the compiled kernels of
:mod:`repro.engine.kernels`.  There are no separate kernel engines:
:class:`~repro.engine.count_based.CountBasedSession` builds a
``KernelJumpChain`` whenever it can, and
:class:`~repro.engine.batch.BatchSession` runs the compiled pair loop
whenever it can.  ``count-jit`` and ``batch-jit`` are registry names
that build ``count`` and ``batch`` under those names, kept so JobSpec
digests and trial-cache keys stay valid.  The science is bit-identical
to the Python loops by construction:

* kernels consume the *same* pre-drawn random buffers the Python loops
  draw (and snapshot), at the same stream positions — they never touch
  the Generator themselves;
* all weight arithmetic is exact integer arithmetic below 2**53, so the
  kernels' float comparisons decide identically to Python's;
* the geometric null-skip uses the same libm ``log``/``log1p`` calls
  CPython's :mod:`math` module makes.

The kernel path builds no Fenwick tree.  A :class:`KernelJumpChain`
keeps the class weights as one int64 vector, computed from the counts
when the chain starts and carried across :meth:`~KernelJumpChain.advance`
calls, and passes the kernel raw addresses bound once per chain; the
Python loop's :class:`~repro.engine.sampling.FenwickWeights` tree is
built only when a driven ``apply_pair`` or an ``audit`` asks for it.

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
from .count_based import _RAND_BLOCK, ChainTables, JumpChain
from .kernels import (
    KERNEL_CONVERGED,
    KERNEL_EXHAUSTED,
    KERNEL_REFILL,
    KERNEL_SILENT,
    address,
    arg_slot,
    get_kernels,
)
from .sampling import FenwickWeights

__all__ = ["KernelJumpChain"]


class KernelJumpChain(JumpChain):
    """A :class:`JumpChain` whose :meth:`advance` runs in the kernel.

    Construction, snapshot capture/restore and driven
    ``apply_pair``/``audit`` are inherited, so snapshots interoperate
    and the conformance differ exercises the same chain.  The class
    tables come from the shared read-only
    :class:`~repro.engine.count_based.ChainTables`, already bound as
    kernel addresses.  The chain owns the arrays the kernel writes —
    counts, the int64 class-weight vector, the registers and the
    milestone buffer — and binds them once, at construction; a refill
    rebinds only the random block.  The weight vector lives across
    :meth:`advance` calls and is computed straight from the counts: no
    Fenwick tree is built unless a Python-path operation
    (``apply_pair``, ``audit``) asks for :attr:`weights`.
    """

    #: Positions in :attr:`_args` of the arguments a chain binds: its own
    #: buffers at construction, the random block on a refill, and the
    #: per-advance values.
    _COUNTS, _VALUES, _REG, _MS_BUF, _RAND, _NRAND, _TARGET, _BUDGET, _TRACK = (
        arg_slot("jump_chain", name)
        for name in (
            "counts", "values", "reg", "ms_buf", "rand_buf", "nrand",
            "target", "budget", "track",
        )
    )

    def __init__(
        self,
        protocol: Protocol,
        counts: list[int],
        rng: np.random.Generator,
        n_total: int,
        *,
        draw: bool = True,
    ) -> None:
        # The arrays the kernel writes are views of one allocation, so
        # binding them costs one address lookup; the inherited
        # constructor fills counts and weights through rebuild_weights.
        tables = ChainTables.of(protocol, n_total)
        if tables.kernel_arrays is None:
            raise ValueError(
                "KernelJumpChain needs a stability signature when the "
                "protocol has a stability predicate"
            )
        S, R = len(counts), len(tables.in1)
        block = np.zeros(S + R + 6 + n_total + 2, dtype=np.int64)
        self._counts = block[:S]
        self._weights = block[S:S + R]
        self._reg = block[S + R:S + R + 6]
        self._ms_buf = block[S + R + 6:]
        self._fenwick: FenwickWeights | None = None
        super().__init__(protocol, counts, rng, n_total, draw=draw)
        self._kernel = get_kernels().jump_chain
        base = address(block)
        item = block.itemsize
        args = self._args = list(tables.kernel_args)
        args[self._COUNTS] = base
        args[self._VALUES] = base + S * item
        args[self._REG] = base + (S + R) * item
        args[self._MS_BUF] = base + (S + R + 6) * item
        if self.rand is not None:
            self._bind_rand()

    def rebuild_weights(self) -> None:
        """(Re)derive the kernel's count and weight vectors in place."""
        weights = self.tables.class_weights(self.counts)
        self._counts[:] = self.counts
        self._weights[:] = weights
        self._reg[3] = sum(weights)
        self._fenwick = None

    @property
    def weights(self) -> FenwickWeights:
        """The Fenwick tree of the Python-path operations, built from the
        weight vector on first use."""
        if self._fenwick is None:
            self._fenwick = FenwickWeights(self._weights.tolist())
        return self._fenwick

    def _bind_rand(self) -> None:
        args = self._args
        args[self._RAND] = address(self.rand, np.float64)
        args[self._NRAND] = len(self.rand)

    def apply_capture(self, payload: dict) -> np.random.Generator:
        rng = super().apply_capture(payload)
        if self.rand is not None:
            self._bind_rand()
        return rng

    def advance(self, ctx, target: int) -> None:
        reg = self._reg
        fenwick = self._fenwick
        if fenwick is not None:
            # A Python-path operation ran since the last advance: its
            # tree and the shared counts list are the current state.
            self._counts[:] = self.counts
            self._weights[:] = fenwick.to_list()
            reg[3] = fenwick.total
            self._fenwick = None
        reg[0] = self.rand_pos
        reg[1] = ctx.interactions
        reg[2] = ctx.effective
        reg[4] = ctx._high_water
        reg[5] = 0
        if self.rand is None:  # pragma: no cover — restore always refills
            self.rand = self.rng.random(_RAND_BLOCK)
            self._bind_rand()
            reg[0] = 0
        args = self._args
        args[self._TARGET] = target
        args[self._BUDGET] = ctx._budget
        args[self._TRACK] = -1 if ctx._track is None else ctx._track
        kern = self._kernel
        ms_buf = self._ms_buf
        milestones = ctx.milestones
        while True:
            status = kern(*args)
            ms_len = int(reg[5])
            if ms_len:
                milestones.extend(ms_buf[:ms_len].tolist())
            if status == KERNEL_REFILL:
                # The wrapper owns the Generator: refill at exactly the
                # stream position the pure-Python loop refills at.
                self.rand = self.rng.random(_RAND_BLOCK)
                self._bind_rand()
                reg[0] = 0
                continue
            break

        self.counts[:] = self._counts.tolist()
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
