"""Measurement helpers layered on the engines' callback hooks.

The engines expose two lightweight instrumentation channels:

* ``track_state`` — timestamps every unit increase of one state's
  count.  Tracking ``g_k`` yields the paper's ``NI_i`` milestones
  (interactions until the i-th complete grouping, Figure 4).
* ``on_effective`` — a callback after every effective interaction;
  :class:`TimeSeriesRecorder` uses it to sample trajectories.  Derived
  series (group sizes, say) are maps over its count snapshots — the
  ``trajectory`` experiment maps them through ``protocol.group_sizes``.

Recorders cost Python-call overhead per effective interaction, so they
are opt-in.

Sampling semantics: recorders always capture the **endpoints** of a
run regardless of ``stride`` — the engines invoke the optional
``prime``/``finalize`` hooks of :data:`~repro.engine.base.StepCallback`
with the initial configuration (step 0) and the final configuration at
the final interaction count, so a trajectory plot starts at the true
initial counts and ends on the converged snapshot even when ``stride``
would have skipped them.  (Earlier versions dropped both endpoints for
``stride > 1``.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from ..core.errors import SimulationError

__all__ = [
    "TimeSeriesRecorder",
    "aggregate_milestones",
]


@dataclass(slots=True)
class TimeSeriesRecorder:
    """Samples the full count vector every ``stride`` effective steps.

    Use as ``engine.run(..., on_effective=rec)``; the recorder is
    callable with the engine's ``(interactions, counts)`` signature and
    additionally records the initial configuration (time 0) and the
    final configuration via the engines' ``prime``/``finalize`` hooks.
    """

    stride: int = 1
    times: list[int] = field(default_factory=list)
    snapshots: list[list[int]] = field(default_factory=list)
    _calls: int = 0

    def __post_init__(self) -> None:
        if self.stride < 1:
            raise SimulationError(f"stride must be positive, got {self.stride}")

    def _record(self, interactions: int, counts: Sequence[int]) -> None:
        self.times.append(int(interactions))
        self.snapshots.append([int(c) for c in counts])

    def prime(self, interactions: int, counts: Sequence[int]) -> None:
        """Record the initial configuration (invoked by the engine)."""
        self._record(interactions, counts)

    def __call__(self, interactions: int, counts: Sequence[int]) -> None:
        self._calls += 1
        if self._calls % self.stride == 0:
            self._record(interactions, counts)

    def finalize(self, interactions: int, counts: Sequence[int]) -> None:
        """Record the final configuration unless it was just sampled."""
        if not self.times or self.times[-1] != interactions:
            self._record(interactions, counts)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(times, snapshots)`` as arrays (snapshots: steps x states)."""
        return (
            np.asarray(self.times, dtype=np.int64),
            np.asarray(self.snapshots, dtype=np.int64),
        )


def aggregate_milestones(
    milestone_lists: Sequence[Sequence[int]],
    *,
    num_milestones: int | None = None,
) -> np.ndarray:
    """Mean interaction count per milestone index across trials.

    ``milestone_lists[t][i]`` is the interaction count at which trial
    ``t`` hit milestone ``i`` (``NI_{i+1}`` when tracking ``g_k``).
    Trials that missed a milestone are excluded from that milestone's
    mean.  Returns a float vector of length ``num_milestones`` (default:
    the longest list); positions no trial reached are NaN.
    """
    if num_milestones is None:
        num_milestones = max((len(m) for m in milestone_lists), default=0)
    out = np.full(num_milestones, np.nan)
    for i in range(num_milestones):
        vals = [m[i] for m in milestone_lists if len(m) > i]
        if vals:
            out[i] = float(np.mean(vals))
    return out
