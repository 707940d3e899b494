"""Property-based tests for the core data structures."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import Configuration, Population, StateSpace, TransitionTable
from repro.protocols import uniform_k_partition

names = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=4),
    min_size=1,
    max_size=8,
    unique=True,
)


@given(names=names)
def test_state_space_index_name_roundtrip(names):
    space = StateSpace(names)
    for i, name in enumerate(names):
        assert space.index(name) == i
        assert space.name(i) == name


@given(names=names, data=st.data())
def test_group_sizes_partition_population(names, data):
    groups = {
        n: data.draw(st.integers(min_value=1, max_value=3), label=f"g[{n}]")
        for n in names
    }
    space = StateSpace(names, groups=groups)
    counts = [
        data.draw(st.integers(min_value=0, max_value=5), label=f"c[{n}]")
        for n in names
    ]
    g = np.zeros(space.num_groups, dtype=np.int64)
    for n, c in zip(names, counts):
        g[groups[n] - 1] += c
    arr = np.asarray(counts, dtype=np.int64)
    sizes = np.zeros(space.num_groups, dtype=np.int64)
    np.add.at(sizes, space.group_array - 1, arr)
    assert np.array_equal(sizes, g)


@settings(max_examples=50, deadline=None)
@given(
    k=st.integers(min_value=2, max_value=5),
    states=st.data(),
)
def test_configuration_successor_preserves_population(k, states):
    p = uniform_k_partition(k)
    pool = list(p.states)
    chosen = states.draw(
        st.lists(st.sampled_from(pool), min_size=2, max_size=10), label="states"
    )
    config = Configuration.from_states(p, chosen)
    for succ in config.successors():
        assert succ.n == config.n
        # Exactly two agents changed state (or a net multiset move).
        diff = np.abs(succ.counts - config.counts).sum()
        assert diff in (2, 4)


@settings(max_examples=50, deadline=None)
@given(
    k=st.integers(min_value=2, max_value=5),
    data=st.data(),
)
def test_population_interact_matches_table(k, data):
    # Population steps the rule listing by name, so the check that
    # matters is the compiled table against that listing.
    p = uniform_k_partition(k)
    pool = list(p.states)
    before = (
        data.draw(st.sampled_from(pool), label="p"),
        data.draw(st.sampled_from(pool), label="q"),
    )
    S, index = p.num_states, p.space.index
    packed = int(p.compiled.delta_flat[index(before[0]) * S + index(before[1])])
    p2, q2 = divmod(packed, S)
    assert (p.space.name(p2), p.space.name(q2)) == p.transitions.apply(*before)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(min_value=2, max_value=6))
def test_compiled_classes_cover_all_non_null_rules(k):
    p = uniform_k_partition(k)
    compiled = p.compiled
    # Every non-identity rule's input pair appears as a class (in some
    # orientation; mirror-consistent pairs fold into one class).
    class_pairs = set()
    for c in compiled.classes:
        class_pairs.add((c.in1, c.in2))
        if c.multiplier == 2:
            class_pairs.add((c.in2, c.in1))
    for t in p.transitions.non_null_rules():
        i = p.space.index(t.p)
        j = p.space.index(t.q)
        assert (i, j) in class_pairs


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(min_value=2, max_value=5),
    data=st.data(),
)
def test_total_active_weight_counts_ordered_pairs_exactly(k, data):
    """The compiled weight equals a brute-force ordered-pair count."""
    p = uniform_k_partition(k)
    pool = list(p.states)
    chosen = data.draw(
        st.lists(st.sampled_from(pool), min_size=2, max_size=9), label="states"
    )
    pop = Population(p, chosen)
    S = p.num_states
    brute = 0
    idx = pop.state_indices
    n = len(chosen)
    active = p.compiled.active_flat
    for i in range(n):
        for j in range(n):
            if i != j and active[int(idx[i]) * S + int(idx[j])]:
                brute += 1
    assert p.compiled.total_active_weight(np.asarray(pop.counts)) == brute
