"""Recorded interaction schedules and the compilation-free reference run.

A schedule is the ground truth of one execution: the ordered list of
(initiator, responder) agent indices that interacted.  The
:class:`ReferenceInterpreter` is deliberately the *slowest, most
obviously correct* interpreter in the library — it applies
:meth:`~repro.core.transitions.TransitionTable.apply` on state
**names**, bypassing the compiled tables every engine uses.  That makes
it an independent oracle: the recorder steps it, and replaying a
recorded schedule through the engines' own data paths (the differ in
:mod:`repro.conform.differ`, driven sessions and bisection probes in
:mod:`repro.sessiond`) steps it alongside the engine to cross-check the
whole compilation pipeline against the paper's rule listing.

Schedules serialize to JSON-safe records, which is also the
minimal-reproducer format the differ dumps on divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from ..core.errors import SimulationError
from ..core.protocol import Protocol
from ..core.rng import SeedLike, ensure_generator
from ..scheduling.base import Scheduler
from ..scheduling.uniform import UniformScheduler

__all__ = ["InteractionSchedule", "ReferenceInterpreter", "record_schedule"]

_BLOCK = 1024


class ReferenceInterpreter:
    """The compilation-free name-level interpreter of one population.

    ``states`` holds one state index per agent and ``counts`` the
    configuration they form.  :meth:`step` looks the two agents' state
    names up in the protocol's rule listing — no compiled tables,
    interaction classes or weights — so its verdicts are independent of
    every engine data path.
    """

    __slots__ = ("states", "counts", "_names", "_index", "_apply")

    def __init__(self, protocol: Protocol, states: Sequence[int]) -> None:
        space = protocol.space
        self._names = space.names
        self._index = space.index
        self._apply = protocol.transitions.apply
        self.states = [int(s) for s in states]
        self.counts = [0] * protocol.num_states
        for s in self.states:
            self.counts[s] += 1

    @classmethod
    def at(cls, protocol: Protocol, counts: Sequence[int]) -> "ReferenceInterpreter":
        """Agents laid out by state: ``counts[0]`` in state 0, then state 1, ..."""
        return cls(protocol, [idx for idx, c in enumerate(counts) for _ in range(c)])

    def step(self, a: int, b: int) -> tuple[int, int, bool]:
        """Let agents ``a`` and ``b`` interact.

        Returns their state indices before the interaction and whether
        it changed either of them.
        """
        states, names = self.states, self._names
        p, q = states[a], states[b]
        p_name, q_name = names[p], names[q]
        p2_name, q2_name = self._apply(p_name, q_name)
        if p2_name == p_name and q2_name == q_name:
            return p, q, False
        p2, q2 = self._index(p2_name), self._index(q2_name)
        states[a], states[b] = p2, q2
        counts = self.counts
        counts[p] -= 1
        counts[q] -= 1
        counts[p2] += 1
        counts[q2] += 1
        return p, q, True


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

    def slice(self, start: int, stop: int) -> "InteractionSchedule":
        """The window ``pairs[start:stop]`` as a standalone schedule.

        The bisector restores a mid-run checkpoint and drives forward
        from there, so it needs windows that start *inside* the run,
        not just prefix cuts.  ``effective_steps`` is re-based to the
        window (step ``s`` becomes ``s - start``).  ``initial_counts``
        is carried over only when ``start == 0`` and ``final_counts``
        only when ``stop`` reaches the end — a mid-run window cannot
        know either without a replay, and leaves them empty instead of
        lying.  The original coordinates are recorded in
        ``meta["window"]``.
        """
        start = max(0, min(start, len(self.pairs)))
        stop = max(start, min(stop, len(self.pairs)))
        at_end = stop == len(self.pairs)
        return InteractionSchedule(
            protocol=self.protocol,
            n=self.n,
            seed=self.seed,
            pairs=self.pairs[start:stop],
            effective_steps=[
                s - start for s in self.effective_steps if start <= s < stop
            ],
            initial_counts=list(self.initial_counts) if start == 0 else [],
            final_counts=list(self.final_counts) if at_end else [],
            converged=self.converged and at_end,
            meta=dict(self.meta, window=[start, stop]),
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
        take = min(_BLOCK, max_interactions - len(pairs))
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
