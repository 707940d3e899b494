"""Agent-level engine with a pluggable scheduler.

Keeps an explicit per-agent state array and asks a
:class:`~repro.scheduling.base.Scheduler` for interaction pairs.  This
is the engine that supports *arbitrary* schedulers (graph-restricted,
weighted, sticky, round-robin); the batch and count engines are
specialized to the uniform scheduler, and the graph engine to random
edge draws.

:class:`AgentBasedSession` is a :class:`~repro.engine.batch.BatchSession`
whose pair sampler is the scheduler's ``next_block``: it runs the one
pair loop, the compiled ``pair_block`` kernel whenever that loop can,
on every scheduler.  Only construction (explicit per-agent
``initial_states``, the scheduler) and the snapshot payload are its
own.  Snapshots carry the scheduler's mutable state (RNG, position —
via :meth:`~repro.scheduling.base.Scheduler.capture_state`, sharing the
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
from ..scheduling.base import PairBlock, Scheduler
from ..scheduling.uniform import UniformScheduler
from .base import Engine, StepCallback
from .batch import BatchSession

__all__ = ["AgentBasedEngine", "AgentBasedSession"]

#: Builds a scheduler for a population of n agents from a shared RNG.
SchedulerFactory = Callable[[int, np.random.Generator], Scheduler]


class AgentBasedSession(BatchSession):
    """The pair-loop session with pairs from a scheduler object."""

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
            engine,
            protocol,
            n,
            seed=seed,
            initial_counts=initial_counts,
            max_interactions=max_interactions,
            track_state=track_state,
            on_effective=on_effective,
        )
        if states is not None:
            self._states = states
        if engine._factory is None:
            self._scheduler = UniformScheduler(self._n, self._rng)
        else:
            self._scheduler = engine._factory(self._n, self._rng)

    def _sample_pairs(self, take: int) -> PairBlock:
        return self._scheduler.next_block(take)

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


class AgentBasedEngine(Engine):
    """Agent-array engine with pluggable schedulers.

    Parameters
    ----------
    scheduler_factory:
        ``(n, rng) -> Scheduler``; defaults to the paper's uniform
        random scheduler.  The scheduler is asked for
        :data:`~repro.engine.session.PAIR_BLOCK` pairs at a time by the
        batch sessions' pair loop, so with the uniform scheduler
        ``agent`` and ``batch`` consume identical random streams for
        the same seed.
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
