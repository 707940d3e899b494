"""Engine interface and result types.

An engine runs one execution of a protocol until the configuration is
stable (or an interaction budget is exhausted) and reports the metric
the paper studies: the **total number of interactions** until
stabilization (Section 5), including null interactions — the paper's
executions pick two agents uniformly at random whether or not their
meeting changes anything.

Nine registry names implement the same semantics at different speed/
generality trade-offs.  ``agent``, ``batch``, ``batch-jit`` and
``graph`` are one engine, :class:`~repro.engine.batch.BatchEngine`,
under four names that differ only in the schedulers they accept, and
``count-jit`` is ``count`` under a second name:

=================  =======================  =================================
engine             scheduler support        cost model
=================  =======================  =================================
agent              any scheduler            O(1) per interaction, tightest
                                            loop (compiled when possible)
batch, batch-jit   uniform only             the same loop
graph              ``graph:*`` only         the same loop over an edge array
count, count-jit   uniform only             O(#rules) per *effective*
                                            interaction; null interactions
                                            are skipped in closed form
hybrid             uniform only             batch early, count late
ensemble           uniform only             the count chain vectorized
                                            across replicates
ensemble-parallel  uniform only             ensemble shards on a process pool
=================  =======================  =================================

The count-based engine makes the paper's exponential-in-k experiments
(Figure 6) tractable: near stabilization almost every interaction is a
no-op between already-grouped agents, and the engine samples the length
of those no-op runs from a geometric law instead of executing them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

import numpy as np

from ..core.errors import SimulationError
from ..core.protocol import Protocol
from ..core.rng import SeedLike

if TYPE_CHECKING:  # pragma: no cover — typing only, avoids an import cycle
    from .session import EngineSession

__all__ = ["Engine", "SimulationResult", "StepCallback"]

#: Called after every effective interaction with (interactions, counts).
#: ``counts`` is the live per-state count sequence — treat as read-only.
#:
#: Callbacks may additionally expose two optional hooks the engines
#: invoke outside the hot loop:
#:
#: * ``prime(0, counts)`` — once before the first interaction, with the
#:   initial configuration (recorders use it to capture step 0);
#: * ``finalize(interactions, counts)`` — once after the loop, with the
#:   final interaction count and configuration (so stride-sampling
#:   recorders never miss the converged snapshot).
StepCallback = Callable[[int, Sequence[int]], None]


@dataclass(slots=True)
class SimulationResult:
    """Outcome of one simulated execution."""

    #: Name of the protocol that was run.
    protocol: str
    #: Population size.
    n: int
    #: Engine registry name (one of ``available_engines()``).
    engine: str
    #: Total interactions performed (the paper's time-complexity metric).
    interactions: int
    #: Interactions that changed at least one agent state.
    effective_interactions: int
    #: True when a stable configuration was reached.
    converged: bool
    #: True when the final configuration is silent (no active pair).
    silent: bool
    #: Final per-state counts.
    final_counts: np.ndarray
    #: Final per-group sizes (empty when the protocol has no group map).
    group_sizes: np.ndarray
    #: Interaction counts at which the tracked state's count reached
    #: 1, 2, ... (``NI_i`` in the paper's Figure 4 when tracking g_k).
    tracked_milestones: list[int] = field(default_factory=list)
    #: Wall-clock seconds spent in the engine loop.
    elapsed: float = 0.0

    @property
    def null_interactions(self) -> int:
        """Interactions that changed nothing."""
        return self.interactions - self.effective_interactions

    def grouping_breakdown(self) -> list[int]:
        """Per-milestone interaction increments ``NI'_i = NI_i - NI_{i-1}``.

        With ``g_k`` tracked this is exactly the paper's Figure 4
        quantity: the cost of the i-th complete grouping.
        """
        out = []
        prev = 0
        for ni in self.tracked_milestones:
            out.append(ni - prev)
            prev = ni
        return out

    def summary(self) -> str:
        """One-line human-readable summary."""
        state = "stable" if self.converged else "NOT CONVERGED"
        return (
            f"{self.protocol} n={self.n} [{self.engine}]: "
            f"{self.interactions} interactions "
            f"({self.effective_interactions} effective), {state}, "
            f"groups={self.group_sizes.tolist()}"
        )

    def to_record(self) -> dict:
        """Lossless JSON-safe serialization (inverse of :meth:`from_record`).

        The per-trial unit of :meth:`TrialSet.to_record` and of the
        campaign store's mid-trial checkpoints.
        """
        return {
            "protocol": self.protocol,
            "n": self.n,
            "engine": self.engine,
            "interactions": self.interactions,
            "effective_interactions": self.effective_interactions,
            "converged": self.converged,
            "silent": self.silent,
            "final_counts": [int(c) for c in self.final_counts],
            "group_sizes": [int(g) for g in self.group_sizes],
            "tracked_milestones": list(self.tracked_milestones),
            "elapsed": self.elapsed,
        }

    @classmethod
    def from_record(cls, record: dict) -> "SimulationResult":
        """Inverse of :meth:`to_record`."""
        return cls(
            protocol=record["protocol"],
            n=record["n"],
            engine=record["engine"],
            interactions=record["interactions"],
            effective_interactions=record["effective_interactions"],
            converged=record["converged"],
            silent=record["silent"],
            final_counts=np.asarray(record["final_counts"], dtype=np.int64),
            group_sizes=np.asarray(record["group_sizes"], dtype=np.int64),
            tracked_milestones=list(record["tracked_milestones"]),
            elapsed=record["elapsed"],
        )


class Engine(ABC):
    """Common surface of the simulation engines.

    An engine is a *stepper factory*: :meth:`start` builds a resumable
    :class:`~repro.engine.session.EngineSession` holding the run's
    complete state, and :meth:`run` is the compatibility shim that
    drives a fresh session to completion in one call.
    """

    #: Short identifier used in results and registries.
    name: str = "abstract"

    @abstractmethod
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
    ) -> "EngineSession":
        """Begin one execution and return its session (no work yet).

        Parameters
        ----------
        protocol:
            The protocol to run.
        n:
            Population size.  Required unless ``initial_counts`` is
            given; all agents start in the designated initial state.
        seed:
            RNG seed or generator.
        initial_counts:
            Explicit starting configuration (overrides ``n``).
        max_interactions:
            Interaction budget.  ``None`` means unbounded — safe for
            protocols proved to stabilize under the uniform scheduler,
            which is globally fair with probability 1.
        track_state:
            A state name or index whose count increments should be
            timestamped (pass ``g_k`` to collect the paper's NI_i).
        on_effective:
            Callback invoked after every effective interaction; used by
            invariant monitors and time-series recorders.  Slows the
            loop, so ``None`` disables it entirely.
        """

    def run(
        self,
        protocol: Protocol,
        n: int | None = None,
        *,
        seed: SeedLike = None,
        initial_counts: Sequence[int] | np.ndarray | None = None,
        max_interactions: int | None = None,
        track_state: str | int | None = None,
        on_effective: StepCallback | None = None,
        **kwargs,
    ) -> SimulationResult:
        """Simulate one execution until stability (or budget exhaustion).

        Equivalent to :meth:`start` + ``advance()`` + ``result()``;
        extra keyword arguments are forwarded to :meth:`start` (the
        agent engine accepts ``initial_states``).  Returns a
        :class:`SimulationResult` with ``converged=False`` when the
        budget ran out first.
        """
        session = self.start(
            protocol,
            n,
            seed=seed,
            initial_counts=initial_counts,
            max_interactions=max_interactions,
            track_state=track_state,
            on_effective=on_effective,
            **kwargs,
        )
        session.advance()
        return session.result()

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _resolve_initial(
        protocol: Protocol,
        n: int | None,
        initial_counts: Sequence[int] | np.ndarray | None,
    ) -> np.ndarray:
        if initial_counts is not None:
            counts = np.asarray(initial_counts, dtype=np.int64).copy()
            if counts.shape != (protocol.num_states,):
                raise SimulationError(
                    f"initial_counts has shape {counts.shape}, "
                    f"expected ({protocol.num_states},)"
                )
            if (counts < 0).any():
                raise SimulationError("initial_counts must be non-negative")
            if n is not None and int(counts.sum()) != n:
                raise SimulationError(
                    f"initial_counts sums to {int(counts.sum())} but n = {n}"
                )
            if int(counts.sum()) < 2:
                raise SimulationError("need at least two agents to interact")
            return counts
        if n is None:
            raise SimulationError("supply either n or initial_counts")
        if n < 2:
            raise SimulationError(f"need at least two agents to interact, got n = {n}")
        return protocol.initial_counts(n)

    @staticmethod
    def _resolve_track_state(protocol: Protocol, track_state: str | int | None) -> int | None:
        if track_state is None:
            return None
        if isinstance(track_state, str):
            return protocol.space.index(track_state)
        if not 0 <= int(track_state) < protocol.num_states:
            raise SimulationError(f"track_state index {track_state} out of range")
        return int(track_state)

    @staticmethod
    def _group_sizes_or_empty(protocol: Protocol, counts: np.ndarray) -> np.ndarray:
        if protocol.num_groups == 0:
            return np.zeros(0, dtype=np.int64)
        return protocol.group_sizes(counts)

    @staticmethod
    def _callback_prime(
        on_effective: StepCallback | None, counts: Sequence[int]
    ) -> None:
        """Give the callback the initial configuration (see StepCallback)."""
        if on_effective is None:
            return
        prime = getattr(on_effective, "prime", None)
        if prime is not None:
            prime(0, counts)

    @staticmethod
    def _callback_finalize(
        on_effective: StepCallback | None, interactions: int, counts: Sequence[int]
    ) -> None:
        """Give the callback the final configuration (see StepCallback)."""
        if on_effective is None:
            return
        finalize = getattr(on_effective, "finalize", None)
        if finalize is not None:
            finalize(interactions, counts)
