"""Adaptive hybrid engine: agent-level early, jump-chain late.

The engine ablation shows a crossover: the batch engine's ~O(1) per
interaction wins while most interactions are effective (early in a
run, and for small n), while the count engine's O(#rules) per
*effective* interaction wins once null interactions dominate (late in
a run, large n, large k — the paper's Figure 5/6 regime).

The hybrid engine gets both ends: it starts with the batch loop and
monitors the exact active-weight fraction ``W/T`` (computable from the
counts in O(#rules)); when the fraction stays below a threshold it
drops the agent array and continues on the count-based jump chain.
Agents are exchangeable under the uniform scheduler, so the count
vector is a sufficient statistic and the switch is distributionally
seamless — the trajectory after the switch has exactly the law of
continuing agent-level simulation.

The two phases consume the RNG differently, so a hybrid run is not
bit-identical to either pure engine; it is equivalent in law (checked
by KS tests in the suite).

Both phases live in :class:`HybridSession`: phase 1 is a buffered
batch loop, phase 2 reuses the count engine's resumable
:class:`~repro.engine.count_based.JumpChain` directly — so the tail no
longer runs through ``CountBasedEngine.run()`` and no longer emits a
spurious ``count`` telemetry record alongside the hybrid one.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.protocol import Protocol
from ..core.rng import SeedLike
from ..scheduling.uniform import uniform_pairs
from .base import Engine, StepCallback
from .count_based import JumpChain
from .session import PAIR_BLOCK, EngineSession

__all__ = ["HybridEngine", "HybridSession"]


class HybridSession(EngineSession):
    """Stepper for :class:`HybridEngine`: batch phase then jump chain.

    The switch condition is only evaluated where the monolithic loop
    evaluated it — once before the first interaction and after every
    ``check_every``-th effective interaction — never at slice
    boundaries, so sliced execution replays the straight-through run
    bit-for-bit.  On switch the unconsumed remainder of the current
    pair block is discarded (the monolith drew whole blocks and
    abandoned them at the handoff) and the jump chain eagerly draws its
    first uniform block, exactly like a fresh count-engine run.

    The phase-2 milestone high-water mark restarts from the switch
    configuration — a deliberate re-creation of the historical
    behaviour, where the tail engine started its own tracking (so a
    tracked count that dipped during phase 1 can re-announce milestones
    after the switch).
    """

    def __init__(
        self,
        engine: "HybridEngine",
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
        self._check_every = engine._check_every
        self._threshold_weight = engine._threshold * (self._n * (self._n - 1))
        states: list[int] = []
        for idx, c in enumerate(self.counts):
            states.extend([idx] * c)
        self._states: list[int] | None = states
        self._buf_a: list[int] = []
        self._buf_b: list[int] = []
        self._pos = 0
        self._phase = 1
        self._chain: JumpChain | None = None
        self._converged = self._is_stable()
        self._switch = (
            not self._converged and self._active_weight() < self._threshold_weight
        )

    # ------------------------------------------------------------------
    # Phase-1 bookkeeping
    # ------------------------------------------------------------------
    def _active_weight(self) -> int:
        counts = self.counts
        return sum(cls.weight(counts) for cls in self._classes)

    def _is_stable(self) -> bool:
        if self._pred is not None:
            return self._pred(self.counts)
        return self._active_weight() == 0

    def _silent_now(self) -> bool:
        if self._phase == 2:
            return self._chain.silent
        return bool(
            self._protocol.compiled.is_silent(
                np.asarray(self.counts, dtype=np.int64)
            )
        )

    # ------------------------------------------------------------------
    # Stepper
    # ------------------------------------------------------------------
    def _advance_inner(self, target: int) -> None:
        if self._phase == 1:
            self._advance_phase1(target)
            if (
                self._switch
                and not self._converged
                and self.interactions < self._budget
            ):
                self._switch_to_count()
        if self._phase == 2 and not (self._converged or self._halted):
            chain = self._chain
            chain.advance(self, target)
            self._converged = chain.converged
            self._halted = chain.silent and not chain.converged

    def _advance_phase1(self, target: int) -> None:
        counts = self.counts
        states = self._states
        S = self._S
        dflat = self._dflat
        pred = self._pred
        classes = self._classes
        rng = self._rng
        n_total = self._n
        track = self._track
        on_effective = self._on_effective
        budget = self._budget
        check_every = self._check_every
        threshold_weight = self._threshold_weight
        interactions = self.interactions
        effective = self.effective
        milestones = self.milestones
        high_water = self._high_water
        buf_a = self._buf_a
        buf_b = self._buf_b
        pos = self._pos
        converged = self._converged
        switch = self._switch

        def active_weight() -> int:
            return sum(cls.weight(counts) for cls in classes)

        def is_stable() -> bool:
            if pred is not None:
                return pred(counts)
            return active_weight() == 0

        while not (converged or switch) and interactions < target:
            if pos >= len(buf_a):
                take = min(PAIR_BLOCK, budget - interactions)
                a_arr, b_arr = uniform_pairs(rng, n_total, take)
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
                if (
                    effective % check_every == 0
                    and active_weight() < threshold_weight
                ):
                    switch = True
                    break
            pos += interactions - before

        self._buf_a = buf_a
        self._buf_b = buf_b
        self._pos = pos
        self.interactions = interactions
        self.effective = effective
        self._high_water = high_water
        self._converged = converged
        self._switch = switch

    def _switch_to_count(self) -> None:
        """Drop the agent array and hand the run to the jump chain."""
        self._phase = 2
        self._states = None
        # Unused remainder of the current pair block is abandoned, as
        # the monolithic handoff abandoned it.
        self._buf_a = []
        self._buf_b = []
        self._pos = 0
        # The tail restarts milestone tracking from the switch
        # configuration (historical behaviour, preserved bit-for-bit).
        if self._track is not None:
            self._high_water = self.counts[self._track]
        self._chain = JumpChain(self._protocol, self.counts, self._rng, self._n)

    def switch_now(self) -> None:
        """Force the phase-1 -> phase-2 handoff immediately.

        Used by driven execution (the conformance differ) to exercise
        both data paths at a chosen point in a replayed schedule.
        """
        if self._phase == 1:
            self._switch_to_count()

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def _capture(self) -> dict:
        if self._phase == 1:
            return {
                "phase": 1,
                "counts": list(self.counts),
                "states": list(self._states),
                "rng": self._rng_state(self._rng),
                "buf_a": self._buf_a[self._pos:],
                "buf_b": self._buf_b[self._pos:],
                "switch": self._switch,
            }
        return {
            "phase": 2,
            "counts": list(self.counts),
            "chain": self._chain.capture(),
        }

    def _restore(self, extra: dict) -> None:
        self.counts = list(extra["counts"])
        if extra["phase"] == 1:
            self._phase = 1
            self._chain = None
            self._states = list(extra["states"])
            self._rng = self._rng_from_state(extra["rng"])
            self._buf_a = list(extra["buf_a"])
            self._buf_b = list(extra["buf_b"])
            self._pos = 0
            self._switch = extra["switch"]
        else:
            self._phase = 2
            self._states = None
            self._buf_a = []
            self._buf_b = []
            self._pos = 0
            self._switch = True
            self._chain = JumpChain(
                self._protocol, self.counts, self._rng, self._n, draw=False
            )
            self._rng = self._chain.apply_capture(extra["chain"])

    # ------------------------------------------------------------------
    # Driven execution
    # ------------------------------------------------------------------
    def apply_scheduled(self, a: int, b: int, p: int, q: int) -> bool:
        if self._phase == 2:
            return self._chain.apply_pair(p, q)
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
        if self._phase == 2:
            return self._chain.audit()
        derived = [0] * self._S
        for s in self._states:
            derived[s] += 1
        if derived != list(self.counts):
            return f"agent states tally {derived} != counts {list(self.counts)}"
        return None


class HybridEngine(Engine):
    """Batch loop that hands off to the count engine when nulls dominate.

    Parameters
    ----------
    switch_threshold:
        Hand off once ``W/T`` (the probability that a uniformly random
        interaction changes something) drops below this value.  The
        default 0.2 hands off when >= 80% of interactions are null —
        roughly where the count engine's per-event cost amortizes.
    check_every:
        Evaluate the fraction every this-many *effective* interactions
        (the fraction only changes on effective steps).
    """

    name = "hybrid"

    def __init__(self, switch_threshold: float = 0.2, check_every: int = 64) -> None:
        if not 0.0 <= switch_threshold <= 1.0:
            raise ValueError(f"switch_threshold must be in [0, 1], got {switch_threshold}")
        if check_every < 1:
            raise ValueError(f"check_every must be positive, got {check_every}")
        self._threshold = float(switch_threshold)
        self._check_every = check_every

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
    ) -> HybridSession:
        return HybridSession(
            self,
            protocol,
            n,
            seed=seed,
            initial_counts=initial_counts,
            max_interactions=max_interactions,
            track_state=track_state,
            on_effective=on_effective,
        )
