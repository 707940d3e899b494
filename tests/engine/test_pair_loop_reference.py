"""The one pair loop against an independent replay of its schedule.

``agent``, ``batch``, ``batch-jit`` and ``graph`` all run
:class:`~repro.engine.batch.BatchSession`'s loop (or its compiled
kernel), so comparing them with each other cannot catch a fault in that
loop.  Here the test draws the pairs itself, by the engines' rule — a
refill of ``min(PAIR_BLOCK, budget - interactions)`` pairs whenever the
block is used up — and steps the name-level
:class:`~repro.conform.ReferenceInterpreter` through them, which shares
no compiled table with any engine.  Each engine's record must match
that replay under both kernel backends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.conform import ReferenceInterpreter
from repro.core.rng import ensure_generator
from repro.engine import engine_for_scheduler, reset_kernels
from repro.engine.session import PAIR_BLOCK
from repro.protocols.registry import build_protocol
from repro.scheduling.graph import edge_pairs
from repro.scheduling.spec import SchedulerSpec
from repro.scheduling.uniform import uniform_pairs

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


def _pair_source(engine: str, scheduler: str, n: int, seed: int):
    """``take -> (a, b)``: the draw the engine makes on each refill."""
    rng = ensure_generator(seed)
    spec = SchedulerSpec.parse(scheduler)
    if engine == "agent":
        return spec.build(n, rng).next_block
    if engine == "graph":
        edges = spec.edge_array(n)
        return lambda take: edge_pairs(rng, edges, take)
    return lambda take: uniform_pairs(rng, n, take)


def _replay(protocol, n, track, budget, draw) -> dict:
    """Step the reference interpreter through the engine's schedule."""
    interp = ReferenceInterpreter.at(protocol, protocol.initial_counts(n).tolist())
    counts = interp.counts
    pred = protocol.stability_predicate(n)
    assert pred is not None
    t = protocol.space.index(track)
    high_water = counts[t]
    milestones: list[int] = []
    interactions = effective = 0
    converged = pred(counts)
    while not converged and interactions < budget:
        a_arr, b_arr = draw(min(PAIR_BLOCK, budget - interactions))
        for a, b in zip(a_arr.tolist(), b_arr.tolist()):
            interactions += 1
            if not interp.step(a, b)[2]:
                continue
            effective += 1
            while high_water < counts[t]:
                high_water += 1
                milestones.append(interactions)
            if pred(counts):
                converged = True
                break
    return {
        "interactions": interactions,
        "effective": effective,
        "final_counts": list(counts),
        "converged": converged,
        "milestones": milestones,
    }


@pytest.mark.parametrize("backend", ["python", "auto"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_record_matches_reference_replay(monkeypatch, case, backend):
    engine, scheduler, name, params, n, track, budget = CASES[case]
    protocol = build_protocol(name, **params)
    seed = 7
    expected = _replay(
        protocol, n, track, budget, _pair_source(engine, scheduler, n, seed)
    )
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
