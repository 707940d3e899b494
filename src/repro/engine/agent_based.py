"""Reference agent-level engine.

Keeps an explicit per-agent state array, asks a
:class:`~repro.scheduling.base.Scheduler` for interaction pairs, and
applies the compiled transition table one interaction at a time.  This
is the engine that supports *arbitrary* schedulers (graph-restricted,
weighted, sticky, round-robin); the batch and count engines are
specialized to the uniform scheduler.

The inner loop follows the optimization guidance for Python hot loops:
pairs are pre-sampled in NumPy blocks, and the per-interaction body
works on plain Python lists and ints (list indexing beats NumPy scalar
indexing by ~5x for this access pattern).

The loop lives in :class:`AgentBasedSession` (an
:class:`~repro.engine.session.EngineSession` stepper); snapshots carry
the scheduler's mutable state (RNG, position — via
:meth:`~repro.scheduling.base.Scheduler.capture_state`, sharing the
immutable graph/pair structure) plus the unconsumed remainder of the
current pair block, so a sliced run consumes the exact random stream of
a straight-through run.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from ..core.errors import SimulationError
from ..core.protocol import Protocol
from ..core.rng import SeedLike
from ..scheduling.base import Scheduler
from ..scheduling.uniform import UniformScheduler
from .base import Engine, StepCallback
from .session import PAIR_BLOCK, EngineSession

__all__ = ["AgentBasedEngine", "AgentBasedSession"]

#: Builds a scheduler for a population of n agents from a shared RNG.
SchedulerFactory = Callable[[int, np.random.Generator], Scheduler]


class AgentBasedSession(EngineSession):
    """Stepper for :class:`AgentBasedEngine`: agent array + scheduler."""

    def __init__(
        self,
        engine: "AgentBasedEngine",
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
        else:
            states = None
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
        if states is None:
            states = []
            for idx, c in enumerate(self.counts):
                states.extend([idx] * c)
        self._states: list[int] = states
        if engine._factory is None:
            self._scheduler = UniformScheduler(self._n, self._rng)
        else:
            self._scheduler = engine._factory(self._n, self._rng)
        compiled = protocol.compiled
        self._S = compiled.num_states
        self._dflat = compiled.delta_list
        self._classes = compiled.classes
        self._pred = protocol.stability_predicate(self._n)
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

    def _is_stable(self) -> bool:
        return self._pred(self.counts) if self._pred is not None else self._silent_now()

    def _advance_inner(self, target: int) -> None:
        counts = self.counts
        states = self._states
        S = self._S
        dflat = self._dflat
        pred = self._pred
        classes = self._classes
        scheduler = self._scheduler
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

        def silent() -> bool:
            return all(cls.weight(counts) == 0 for cls in classes)

        def is_stable() -> bool:
            return pred(counts) if pred is not None else silent()

        converged = is_stable()
        while not converged and interactions < target:
            if pos >= len(buf_a):
                # Refill exactly as the monolithic loop did: block-sized
                # draws clipped by the *run* budget, never the slice
                # target — slicing must not change the random stream.
                take = min(PAIR_BLOCK, budget - interactions)
                a_arr, b_arr = scheduler.next_block(take)
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

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def _capture(self) -> dict:
        # Only the scheduler's *mutable* state is captured; immutable
        # structure (edge arrays, pair tables, the networkx graph) stays
        # shared with the live scheduler, keeping graph-session
        # snapshots O(n) instead of O(edges).
        return {
            "counts": list(self.counts),
            "states": list(self._states),
            "scheduler_state": self._scheduler.capture_state(),
            "buf_a": self._buf_a[self._pos:],
            "buf_b": self._buf_b[self._pos:],
        }

    def _restore(self, extra: dict) -> None:
        self.counts = list(extra["counts"])
        self._states = list(extra["states"])
        if "scheduler_state" in extra:
            self._scheduler.restore_state(extra["scheduler_state"])
        else:
            # Legacy snapshots (pre scheduler_state) carried the whole
            # deep-copied scheduler object.
            self._scheduler = extra["scheduler"]
        self._rng = self._scheduler.rng
        self._buf_a = list(extra["buf_a"])
        self._buf_b = list(extra["buf_b"])
        self._pos = 0

    # ------------------------------------------------------------------
    # Driven execution
    # ------------------------------------------------------------------
    def apply_scheduled(self, a: int, b: int, p: int, q: int) -> bool:
        states = self._states
        S = self._S
        pq = states[a] * S + states[b]
        out = self._dflat[pq]
        if out == pq:
            return False
        p2, q2 = divmod(out, S)
        counts = self.counts
        counts[states[a]] -= 1
        counts[states[b]] -= 1
        counts[p2] += 1
        counts[q2] += 1
        states[a] = p2
        states[b] = q2
        return True


class AgentBasedEngine(Engine):
    """Agent-array engine with pluggable schedulers.

    Parameters
    ----------
    scheduler_factory:
        ``(n, rng) -> Scheduler``; defaults to the paper's uniform
        random scheduler.  The scheduler is asked for
        :data:`~repro.engine.session.PAIR_BLOCK` pairs at a time, as
        the batch sessions draw them, so both engines consume identical
        random streams for the same seed.
    """

    name = "agent"

    def __init__(self, scheduler_factory: SchedulerFactory | None = None) -> None:
        self._factory = scheduler_factory

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
    ) -> AgentBasedSession:
        """See :meth:`Engine.start`.

        This engine additionally accepts ``initial_states``: explicit
        per-agent starting states (names or indices).  Agent *position*
        is irrelevant under exchangeable schedulers but matters for
        graph-restricted ones, where agent i sits on graph node i.
        """
        return AgentBasedSession(
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
