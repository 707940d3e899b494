"""Recorded interaction schedules: the library's one recorded execution.

A schedule is the ground truth of one execution: the ordered list of
(initiator, responder) agent indices that interacted.  The recorder
steps :class:`~repro.core.population.ReferenceInterpreter` — the
*slowest, most obviously correct* interpreter in the library, which
applies :meth:`~repro.core.transitions.TransitionTable.apply` on state
**names**, bypassing the compiled tables every engine uses — and draws
its pairs exactly as the agent-level engines do, so
``record_schedule(protocol, n, seed=S)`` is the run
``engine_for_scheduler("agent", scheduler).run(protocol, n, seed=S)``
makes.  Replaying a recorded schedule through the engines' own data
paths (the differ in :mod:`repro.conform.differ`, driven sessions and
bisection in :mod:`repro.sessiond`) steps the interpreter alongside the
engine to cross-check the whole compilation pipeline against the
paper's rule listing.

Schedules serialize to JSON-safe records, which is also the
minimal-reproducer format the differ dumps on divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from ..core.errors import SimulationError
from ..core.population import ReferenceInterpreter
from ..core.protocol import Protocol
from ..core.rng import SeedLike, ensure_generator
from ..engine.session import PAIR_BLOCK
from ..scheduling.base import Scheduler
from ..scheduling.uniform import UniformScheduler

__all__ = ["InteractionSchedule", "ReferenceInterpreter", "record_schedule"]


@dataclass(slots=True)
class InteractionSchedule:
    """One recorded execution: pairs, plus the configurations they produced.

    ``pairs`` holds every scheduled interaction (null ones included —
    the engines' compiled tables must agree a pair is null, too).
    ``effective_steps`` marks the indices into ``pairs`` that changed
    some state, and ``final_counts`` is the reference interpreter's
    terminal configuration.
    """

    protocol: str
    n: int
    seed: int | None
    pairs: list[tuple[int, int]]
    effective_steps: list[int]
    initial_counts: list[int]
    final_counts: list[int]
    converged: bool
    meta: dict = field(default_factory=dict)

    @property
    def interactions(self) -> int:
        return len(self.pairs)

    @property
    def effective_interactions(self) -> int:
        return len(self.effective_steps)

    def prefix(self, steps: int) -> "InteractionSchedule":
        """The first ``steps`` interactions (a minimal-reproducer cut)."""
        steps = max(0, min(steps, len(self.pairs)))
        return InteractionSchedule(
            protocol=self.protocol,
            n=self.n,
            seed=self.seed,
            pairs=self.pairs[:steps],
            effective_steps=[s for s in self.effective_steps if s < steps],
            initial_counts=list(self.initial_counts),
            final_counts=list(self.final_counts),
            converged=False,
            meta=dict(self.meta, truncated_at=steps),
        )

    def to_record(self) -> dict:
        """JSON-safe serialization (the reproducer format)."""
        return {
            "protocol": self.protocol,
            "n": self.n,
            "seed": self.seed,
            "pairs": [[int(a), int(b)] for a, b in self.pairs],
            "effective_steps": [int(s) for s in self.effective_steps],
            "initial_counts": [int(c) for c in self.initial_counts],
            "final_counts": [int(c) for c in self.final_counts],
            "converged": bool(self.converged),
            "meta": dict(self.meta),
        }

    @classmethod
    def from_record(cls, record: dict) -> "InteractionSchedule":
        """Inverse of :meth:`to_record`."""
        return cls(
            protocol=record["protocol"],
            n=record["n"],
            seed=record["seed"],
            pairs=[(int(a), int(b)) for a, b in record["pairs"]],
            effective_steps=[int(s) for s in record["effective_steps"]],
            initial_counts=[int(c) for c in record["initial_counts"]],
            final_counts=[int(c) for c in record["final_counts"]],
            converged=bool(record["converged"]),
            meta=dict(record.get("meta", {})),
        )


def record_schedule(
    protocol: Protocol,
    n: int | None = None,
    *,
    seed: SeedLike = None,
    initial_counts: Sequence[int] | np.ndarray | None = None,
    max_interactions: int = 2_000_000,
    scheduler: Scheduler | None = None,
) -> InteractionSchedule:
    """Run the :class:`ReferenceInterpreter` and record every scheduled pair.

    Pairs are drawn as every pair-stepping engine draws them: a refill
    of ``min(PAIR_BLOCK, max_interactions - drawn)`` pairs whenever the
    block is used up.  So the recording equals the ``agent`` engine's
    run at the same seed (``scheduler`` built on that seed's generator
    for a non-uniform scheduler), interaction for interaction.

    Stops at the protocol's stability predicate (silence when there is
    none) or at ``max_interactions``, which is mandatory and finite
    here: a recorded schedule must be materializable, so unbounded runs
    are a usage error.
    """
    if max_interactions < 0:
        raise SimulationError(
            f"max_interactions must be non-negative, got {max_interactions}"
        )
    if initial_counts is not None:
        counts0 = np.asarray(initial_counts, dtype=np.int64)
        if counts0.shape != (protocol.num_states,):
            raise SimulationError(
                f"initial_counts has shape {counts0.shape}, "
                f"expected ({protocol.num_states},)"
            )
        if n is not None and int(counts0.sum()) != n:
            raise SimulationError(
                f"initial_counts sums to {int(counts0.sum())} but n = {n}"
            )
    else:
        if n is None:
            raise SimulationError("supply either n or initial_counts")
        counts0 = protocol.initial_counts(n)
    n_total = int(counts0.sum())
    if n_total < 2:
        raise SimulationError("need at least two agents to interact")

    interpreter = ReferenceInterpreter.at(protocol, counts0.tolist())
    step, counts = interpreter.step, interpreter.counts
    pred = protocol.stability_predicate(n_total)

    def is_stable() -> bool:
        if pred is not None:
            return bool(pred(counts))
        return protocol.compiled.is_silent(np.asarray(counts, dtype=np.int64))

    rng = ensure_generator(seed)
    if scheduler is None:
        scheduler = UniformScheduler(n_total, rng)

    pairs: list[tuple[int, int]] = []
    effective_steps: list[int] = []
    converged = is_stable()
    while not converged and len(pairs) < max_interactions:
        take = min(PAIR_BLOCK, max_interactions - len(pairs))
        a_arr, b_arr = scheduler.next_block(take)
        for a, b in zip(a_arr.tolist(), b_arr.tolist()):
            pairs.append((a, b))
            if not step(a, b)[2]:
                continue
            effective_steps.append(len(pairs) - 1)
            if is_stable():
                converged = True
                break

    return InteractionSchedule(
        protocol=protocol.name,
        n=n_total,
        seed=seed if isinstance(seed, int) else None,
        pairs=pairs,
        effective_steps=effective_steps,
        initial_counts=counts0.tolist(),
        final_counts=list(counts),
        converged=converged,
    )
