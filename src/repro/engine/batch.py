"""The one agent-level engine: block pair sampling over an agent array.

:class:`BatchEngine` is the only agent-level engine, and
:class:`BatchSession` its only pair-draw/apply loop.  The registry
names ``agent``, ``batch``, ``batch-jit`` and ``graph`` each build it
under their own name (so records, JobSpec digests and trial-cache keys
recorded under any of them stay valid); they differ only in the
scheduler they run by default and the scheduler kinds they accept (see
:data:`SCHEDULER_KINDS`).

The session picks its pair source once, at start, from the engine's
scheduler:

* ``uniform`` — :func:`~repro.scheduling.uniform.uniform_pairs` on the
  session RNG;
* ``graph:*`` — :func:`~repro.scheduling.graph.edge_pairs` on the
  session RNG over the spec's ``(E, 2)`` edge array, which the engine
  builds once per population size and shares across trials;
* ``roundrobin``, or an ``(n, rng) -> Scheduler`` factory — the
  scheduler's ``next_block``.

Every source is asked for :data:`~repro.engine.session.PAIR_BLOCK`
pairs per refill, and :class:`~repro.scheduling.uniform.UniformScheduler`
and :class:`~repro.scheduling.graph.GraphScheduler` draw through the
same two functions, so a factory building either of them reproduces
the named scheduler's execution bit for bit.

Use this engine when per-interaction fidelity matters (e.g. recording
callbacks at exact interaction indices) or the scheduler is not
uniform; use the count-based engine when only counts and totals
matter.

The session runs the compiled ``pair_block`` kernel of
:mod:`repro.engine.kernels` when a native backend is present, no
``on_effective`` callback is set and any stability predicate has a
:class:`~repro.core.protocol.StabilitySignature`; otherwise it runs
its Python loop, which the kernel matches bit for bit.  Neither loop
carries class weights between advances: the Python loop tests
stability with the protocol's predicate, or silence with a scan of the
class weights, and the kernel recomputes the weights from the counts
each time it is entered.  Snapshots carry the RNG state (or a
scheduler object's mutable state) and the unconsumed tail of the
current pair block (see :mod:`repro.engine.session` for the
bit-identity discipline), so they move freely between the two loops.

Silence caveat on restricted topologies: the class-weight scan counts
interacting pairs over the *complete* graph, so it is conservative
there — weight zero still implies truly silent, but a configuration
whose only enabled pairs are non-adjacent keeps running until the
budget.  Protocols aimed at restricted graphs (e.g.
``graph-bipartition``) terminate via their stability predicate
instead, which is exact.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import cached_property, partial

import numpy as np

from ..core.errors import SimulationError
from ..core.protocol import Protocol
from ..core.rng import SeedLike
from ..scheduling.base import PairBlock, Scheduler
from ..scheduling.graph import edge_pairs
from ..scheduling.spec import SchedulerSpec
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

__all__ = ["BatchEngine", "BatchSession", "SCHEDULER_KINDS", "SchedulerFactory"]

#: Builds a scheduler for a population of n agents from the session RNG.
SchedulerFactory = Callable[[int, np.random.Generator], Scheduler]

#: Positions of the pair-block arguments a refill rebinds.
_BUF_A, _BUF_B, _N_BUF = (
    arg_slot("pair_block", name) for name in ("buf_a", "buf_b", "n_buf")
)

#: The scheduler kinds each registry name of this engine accepts; every
#: other engine name runs only the uniform scheduler.  The first name
#: that accepts a non-uniform kind is the default engine for it.
SCHEDULER_KINDS: dict[str, tuple[str, ...]] = {
    "graph": ("graph",),
    "agent": ("uniform", "roundrobin", "graph"),
    "batch": ("uniform",),
    "batch-jit": ("uniform",),
}


class BatchSession(EngineSession):
    """Stepper for :class:`BatchEngine`: an agent array stepped through
    blocks of pairs drawn by ``_sample_pairs``, the pair source chosen
    at start."""

    def __init__(
        self,
        engine: "BatchEngine",
        protocol: Protocol,
        n: int | None,
        *,
        seed: SeedLike,
        initial_counts: Sequence[int] | np.ndarray | None,
        initial_states: Sequence[str] | Sequence[int] | None,
        max_interactions: int | None,
        track_state: str | int | None,
        on_effective: StepCallback | None,
    ) -> None:
        states: list[int] | None = None
        if initial_states is not None:
            if initial_counts is not None:
                raise SimulationError(
                    "pass either initial_counts or initial_states, not both"
                )
            space = protocol.space
            states = [
                space.index(s) if isinstance(s, str) else int(s)
                for s in initial_states
            ]
            initial_counts = np.bincount(
                np.asarray(states, dtype=np.int64), minlength=protocol.num_states
            )
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
        if states is None:
            states = []
            for idx, c in enumerate(self.counts):
                states.extend([idx] * c)
        self._states = states
        # Unconsumed tail of the current pre-sampled pair block.
        self._buf_a: list[int] = []
        self._buf_b: list[int] = []
        self._pos = 0
        # The pair source, fixed for the session's lifetime.  The
        # uniform and edge draws close over self._rng, so restore sets
        # its state in place; a scheduler object restores its own.
        spec = engine.spec
        self._scheduler_name = None if spec is None else spec.name
        self._scheduler: Scheduler | None = None
        self._sample_pairs: Callable[[int], PairBlock]
        if spec is None or spec.kind == "roundrobin":
            factory = engine.scheduler_factory if spec is None else spec.build
            self._scheduler = factory(self._n, self._rng)
            self._sample_pairs = self._scheduler.next_block
        elif spec.kind == "graph":
            # The edge array is looked up per refill and built on the
            # first (once per engine and n): a driven session, which
            # never draws, builds no graph.
            edge_array = engine.edge_array
            self._sample_pairs = lambda take: edge_pairs(
                self._rng, edge_array(self._n), take
            )
        else:
            self._sample_pairs = partial(uniform_pairs, self._rng, self._n)

    # ------------------------------------------------------------------
    # Stepper
    # ------------------------------------------------------------------
    def _silent_now(self) -> bool:
        counts = self.counts
        return all(cls.weight(counts) == 0 for cls in self._classes)

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
        extra: dict = {"counts": list(self.counts), "states": list(self._states)}
        if self._scheduler is not None:
            # Only the scheduler's *mutable* state: its immutable
            # structure stays shared with the live scheduler.
            extra["scheduler_state"] = self._scheduler.capture_state()
        else:
            extra["rng"] = self._rng_state(self._rng)
        extra["buf_a"] = self._buf_a[self._pos:]
        extra["buf_b"] = self._buf_b[self._pos:]
        if self._scheduler_name not in (None, "uniform"):
            # Pin the topology, so a snapshot cannot be restored into a
            # session sampling a different edge set.
            extra["scheduler"] = self._scheduler_name
        return extra

    def _restore(self, extra: dict) -> None:
        """Adopt any payload an agent-level session has written: ``rng``
        (uniform), ``rng`` plus the scheduler name (graph), or
        ``scheduler_state`` (a scheduler object, including the uniform
        and graph schedulers the ``agent`` name once ran through)."""
        recorded = extra.get("scheduler")
        if recorded is not None and recorded != self._scheduler_name:
            raise SimulationError(
                f"snapshot was taken on scheduler {recorded!r}, "
                f"cannot restore into {self._scheduler_name!r}"
            )
        if self._scheduler is not None:
            self._scheduler.restore_state(extra["scheduler_state"])
        else:
            rng = extra["rng"] if "rng" in extra else extra["scheduler_state"]["rng"]
            self._rng.bit_generator.state = rng
        self.counts = list(extra["counts"])
        self._states = list(extra["states"])
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
    """The agent-level engine: an agent array stepped through blocks of
    scheduled pairs.

    Parameters
    ----------
    scheduler:
        A scheduler name (see :mod:`repro.scheduling.spec`), a parsed
        :class:`~repro.scheduling.spec.SchedulerSpec`, or an
        ``(n, rng) -> Scheduler`` factory called once per session with
        the session RNG.
    name:
        The registry name the engine runs under, reported in every
        result and pinned in every snapshot.  A name accepts only the
        scheduler kinds :data:`SCHEDULER_KINDS` lists for it; a factory
        is accepted under any name.
    """

    name = "batch"

    def __init__(
        self,
        scheduler: str | SchedulerSpec | SchedulerFactory = "uniform",
        *,
        name: str = "batch",
    ) -> None:
        self.name = name
        self.scheduler_factory: SchedulerFactory | None = None
        self.spec: SchedulerSpec | None = None
        if callable(scheduler):
            self.scheduler_factory = scheduler
        else:
            spec = SchedulerSpec.parse(scheduler)
            kinds = SCHEDULER_KINDS.get(name, ("uniform",))
            if spec.kind not in kinds:
                raise SimulationError(
                    f"engine {name!r} cannot run scheduler {spec.name!r}; "
                    f"it runs {' and '.join(kinds)} schedulers only"
                )
            self.spec = spec
        # Edge arrays are deterministic in (spec, n): cached per n, so a
        # multi-trial run builds each graph once.
        self._edge_cache: dict[int, np.ndarray] = {}

    def edge_array(self, n: int) -> np.ndarray:
        """The read-only ``(E, 2)`` int64 edge array of this engine's
        ``graph:*`` scheduler for a population of ``n``."""
        cached = self._edge_cache.get(n)
        if cached is None:
            cached = self.spec.edge_array(n)
            cached.setflags(write=False)
            self._edge_cache[n] = cached
        return cached

    def start(
        self,
        protocol: Protocol,
        n: int | None = None,
        *,
        seed: SeedLike = None,
        initial_counts: Sequence[int] | np.ndarray | None = None,
        initial_states: Sequence[str] | Sequence[int] | None = None,
        max_interactions: int | None = None,
        track_state: str | int | None = None,
        on_effective: StepCallback | None = None,
    ) -> BatchSession:
        """See :meth:`Engine.start`.

        This engine additionally accepts ``initial_states``: explicit
        per-agent starting states (names or indices).  Agent *position*
        is irrelevant under exchangeable schedulers but matters for
        graph-restricted ones, where agent i sits on graph node i.
        """
        return BatchSession(
            self,
            protocol,
            n,
            seed=seed,
            initial_counts=initial_counts,
            initial_states=initial_states,
            max_interactions=max_interactions,
            track_state=track_state,
            on_effective=on_effective,
        )
