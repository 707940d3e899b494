"""Property-based tests (hypothesis) for the k-partition protocol.

These quantify over (k, n, seed) and assert the paper's theorems on
every sampled instance: Theorem 1 (stabilization to a uniform
partition with the Lemma-6 signature) and Lemma 1 (the conserved
invariant) along real executions.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.conform import ConformanceMonitor, invariant_pack
from repro.engine import BatchEngine, CountBasedEngine
from repro.protocols import uniform_k_partition

# Protocol construction is deterministic; cache instances across examples.
_PROTOCOLS: dict[int, object] = {}


def proto(k):
    if k not in _PROTOCOLS:
        _PROTOCOLS[k] = uniform_k_partition(k)
    return _PROTOCOLS[k]


ks = st.integers(min_value=2, max_value=7)
ns = st.integers(min_value=3, max_value=40)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(k=ks, n=ns, seed=seeds)
def test_stabilizes_to_uniform_partition(k, n, seed):
    """Theorem 1 on random instances: convergence + uniformity."""
    p = proto(k)
    r = CountBasedEngine().run(p, n, seed=seed)
    assert r.converged
    sizes = r.group_sizes
    assert int(sizes.sum()) == n
    assert int(sizes.max() - sizes.min()) <= 1


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(k=ks, n=ns, seed=seeds)
def test_final_counts_match_lemma6_signature(k, n, seed):
    """The final configuration is exactly the Lemma-6 signature."""
    p = proto(k)
    r = CountBasedEngine().run(p, n, seed=seed)
    assert p.stable(r.final_counts, n)
    assert (r.group_sizes == p.expected_group_sizes(n)).all()


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(k=st.integers(min_value=3, max_value=6), n=st.integers(min_value=3, max_value=25), seed=seeds)
def test_lemma1_holds_along_executions(k, n, seed):
    """Lemma 1 checked after every effective interaction of a run."""
    p = proto(k)
    monitor = ConformanceMonitor(invariant_pack(p, n))
    r = BatchEngine().run(p, n, seed=seed, on_effective=monitor)
    assert r.converged
    assert monitor.checks_performed == r.effective_interactions + 1


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(k=ks, n=ns, seed=seeds)
def test_gk_count_is_monotone(k, n, seed):
    """Once an agent enters g_k the grouping is permanent (Sec. 3.2)."""
    p = proto(k)
    gk = p.gk_index
    prev = [0]

    def check(interactions, counts):
        assert counts[gk] >= prev[0]
        prev[0] = counts[gk]

    BatchEngine().run(p, n, seed=seed, on_effective=check)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(k=ks, n=ns, seed=seeds)
def test_population_conserved_along_executions(k, n, seed):
    p = proto(k)

    def check(interactions, counts):
        assert sum(counts) == n

    r = BatchEngine().run(p, n, seed=seed, on_effective=check)
    assert int(r.final_counts.sum()) == n


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(k=ks, n=ns, seed=seeds)
def test_milestone_count_is_floor_n_over_k(k, n, seed):
    """Exactly floor(n/k) agents ever enter g_k."""
    p = proto(k)
    r = CountBasedEngine().run(p, n, seed=seed, track_state=f"g{k}")
    assert len(r.tracked_milestones) == n // k


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(k=ks, n=ns, seed=seeds)
def test_engines_agree_on_final_partition(k, n, seed):
    """All engines reach the same final group sizes."""
    from repro.engine import HybridEngine, build_engine

    p = proto(k)
    sizes = [
        engine.run(p, n, seed=seed).group_sizes.tolist()
        for engine in (
            build_engine("agent"), BatchEngine(), CountBasedEngine(), HybridEngine()
        )
    ]
    assert sizes[0] == sizes[1] == sizes[2] == sizes[3]
