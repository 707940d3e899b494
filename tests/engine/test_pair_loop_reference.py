"""The one pair loop against an independent replay of its schedule.

``agent``, ``batch``, ``batch-jit`` and ``graph`` all run
:class:`~repro.engine.batch.BatchSession`'s loop (or its compiled
kernel), so comparing them with each other cannot catch a fault in that
loop.  Here the schedule comes from
:func:`~repro.conform.record_schedule`, which draws pairs by the
engines' rule — a refill of ``min(PAIR_BLOCK, budget - interactions)``
pairs whenever the block is used up — and steps the name-level
:class:`~repro.core.population.ReferenceInterpreter`, which shares no
compiled table with any engine.  Each engine's record must match that
recording under both kernel backends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.conform import ReferenceInterpreter, record_schedule
from repro.core.rng import ensure_generator
from repro.engine import engine_for_scheduler, reset_kernels
from repro.protocols.registry import build_protocol
from repro.scheduling.spec import SchedulerSpec

#: case id -> (engine, scheduler, protocol, params, n, track, budget)
CASES = {
    "agent-uniform": ("agent", "uniform", "uniform-k-partition", {"k": 3}, 120, "g3", 200_000),
    "agent-roundrobin": ("agent", "roundrobin", "weak-k-partition", {"k": 3}, 61, "g_3", 50_000),
    "agent-roundrobin-k3": ("agent", "roundrobin", "uniform-k-partition", {"k": 3}, 40, "g3", 50_000),
    "agent-graph:cycle": ("agent", "graph:cycle", "graph-bipartition", {}, 40, "g1", 400_000),
    "batch": ("batch", "uniform", "uniform-k-partition", {"k": 3}, 120, "g3", 200_000),
    "batch-jit": ("batch-jit", "uniform", "uniform-k-partition", {"k": 3}, 120, "g3", 200_000),
    "batch-exhausted": ("batch", "uniform", "uniform-k-partition", {"k": 3}, 120, "g3", 6_000),
    "graph": ("graph", "graph:cycle", "graph-bipartition", {}, 40, "g1", 400_000),
}


def _recorded(protocol, n, track, budget, scheduler, seed) -> dict:
    """The engine record the recording of this run implies."""
    sched = None
    if scheduler != "uniform":
        sched = SchedulerSpec.parse(scheduler).build(n, ensure_generator(seed))
    rec = record_schedule(
        protocol, n, seed=seed, max_interactions=budget, scheduler=sched
    )
    # Milestones: replay the effective steps (null ones change nothing).
    interp = ReferenceInterpreter.at(protocol, rec.initial_counts)
    t = protocol.space.index(track)
    high_water = interp.counts[t]
    milestones: list[int] = []
    for i in rec.effective_steps:
        interp.step(*rec.pairs[i])
        while high_water < interp.counts[t]:
            high_water += 1
            milestones.append(i + 1)
    assert interp.counts == rec.final_counts
    return {
        "interactions": rec.interactions,
        "effective": rec.effective_interactions,
        "final_counts": rec.final_counts,
        "converged": rec.converged,
        "milestones": milestones,
    }


@pytest.mark.parametrize("backend", ["python", "auto"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_record_matches_reference_replay(monkeypatch, case, backend):
    engine, scheduler, name, params, n, track, budget = CASES[case]
    protocol = build_protocol(name, **params)
    seed = 7
    expected = _recorded(protocol, n, track, budget, scheduler, seed)
    monkeypatch.setenv("REPRO_KERNEL", backend)
    reset_kernels()
    try:
        result = engine_for_scheduler(engine, scheduler).run(
            protocol, n, seed=seed, max_interactions=budget, track_state=track
        )
    finally:
        monkeypatch.undo()
        reset_kernels()
    assert result.engine == engine
    got = {
        "interactions": result.interactions,
        "effective": result.effective_interactions,
        "final_counts": np.asarray(result.final_counts).tolist(),
        "converged": result.converged,
        "milestones": list(result.tracked_milestones),
    }
    assert got == expected
    # The exhausted case must really run out of budget, the others converge.
    assert expected["converged"] == (case != "batch-exhausted")
