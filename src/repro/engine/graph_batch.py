"""Batched engine for graph-restricted schedulers.

:class:`~repro.engine.agent_based.AgentBasedEngine` accepts arbitrary
schedulers through a scheduler object.  A *graph-restricted* schedule
needs none: it is just "uniform random row of a fixed ``(E, 2)`` int64
edge array, randomly oriented", a function of the spec and ``n``, so
this engine takes the spec itself and pins its name in every
snapshot.

:class:`GraphBatchSession` is a
:class:`~repro.engine.batch.BatchSession` with one method swapped — the
pair sampler — inheriting the pair loop (the compiled ``pair_block``
kernel when it can run, which refills its buffers through this
sampler, else the Python loop), the silence scan, snapshot/restore
with pre-drawn block tails, and driven execution.  ``agent`` on a
graph scheduler runs the same loop and the same kernel, so the two
cost about the same (see ``docs/performance.md``).  The sampler
and :meth:`~repro.scheduling.graph.GraphScheduler.next_block` both call
:func:`~repro.scheduling.graph.edge_pairs` on
:data:`~repro.engine.session.PAIR_BLOCK`-sized refills, so for the same
seed this engine reproduces the agent engine + GraphScheduler execution
**bit for bit** — the conformance suite pins that equivalence the same
way it pins batch-vs-agent on the complete graph.

Silence caveat (shared with the agent engine): the class-weight scan
counts interacting pairs over the *complete* graph, so it is
conservative on restricted topologies — weight zero still implies truly
silent, but a configuration whose only enabled pairs are non-adjacent
keeps running until the budget.  Protocols aimed at restricted graphs
(e.g. ``graph-bipartition``) terminate via their stability predicate
instead, which is exact.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.errors import SimulationError
from ..core.protocol import Protocol
from ..core.rng import SeedLike
from ..scheduling.graph import edge_pairs
from ..scheduling.spec import SchedulerSpec
from .base import StepCallback
from .batch import BatchEngine, BatchSession

__all__ = ["GraphBatchEngine", "GraphBatchSession"]


class GraphBatchSession(BatchSession):
    """Batch stepper drawing pairs from a fixed edge array."""

    def __init__(
        self,
        engine: "GraphBatchEngine",
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
            engine,
            protocol,
            n,
            seed=seed,
            initial_counts=initial_counts,
            max_interactions=max_interactions,
            track_state=track_state,
            on_effective=on_effective,
        )
        self._spec = engine.spec
        self._edges = engine.edge_array(self._n)

    def _sample_pairs(self, take: int) -> tuple[np.ndarray, np.ndarray]:
        return edge_pairs(self._rng, self._edges, take)

    # ------------------------------------------------------------------
    # Snapshot / restore: also pin the topology, so a snapshot cannot be
    # restored into a session sampling a different edge set.
    # ------------------------------------------------------------------
    def _capture(self) -> dict:
        extra = super()._capture()
        extra["scheduler"] = self._spec.name
        return extra

    def _restore(self, extra: dict) -> None:
        snap_scheduler = extra.get("scheduler")
        if snap_scheduler != self._spec.name:
            raise SimulationError(
                f"snapshot was taken on scheduler {snap_scheduler!r}, "
                f"cannot restore into {self._spec.name!r}"
            )
        super()._restore(extra)


class GraphBatchEngine(BatchEngine):
    """Batch-speed engine for graph-restricted topologies.

    Parameters
    ----------
    scheduler:
        A graph scheduler name (``"graph:cycle"``, ``"graph:complete"``,
        ``"graph:regular:<d>[@<graph_seed>]"``) or parsed
        :class:`~repro.scheduling.spec.SchedulerSpec`.  The topology is
        a function of the spec and ``n`` only — never of the run seed.
    """

    name = "graph"
    _session_cls = GraphBatchSession

    def __init__(self, scheduler: str | SchedulerSpec = "graph:complete") -> None:
        spec = SchedulerSpec.parse(scheduler)
        if spec.kind != "graph":
            raise SimulationError(
                f"GraphBatchEngine needs a graph:* scheduler, got {spec.name!r}"
            )
        self._spec = spec
        # Edge arrays are deterministic in (spec, n); cache per n so a
        # multi-trial run builds each networkx graph once.
        self._edge_cache: dict[int, np.ndarray] = {}

    @property
    def spec(self) -> SchedulerSpec:
        return self._spec

    def edge_array(self, n: int) -> np.ndarray:
        """The ``(E, 2)`` int64 edge array for a population of ``n``."""
        cached = self._edge_cache.get(n)
        if cached is None:
            cached = self._spec.edge_array(n)
            cached.setflags(write=False)
            self._edge_cache[n] = cached
        return cached
