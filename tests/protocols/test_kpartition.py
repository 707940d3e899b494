"""Unit tests for the paper's Algorithm 1 (uniform k-partition)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ProtocolError
from repro.protocols import UniformKPartitionProtocol, uniform_k_partition


class TestStructure:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 8, 10, 16])
    def test_state_count_is_3k_minus_2(self, k):
        # Theorem 1's space bound, and the static helper agrees.
        p = uniform_k_partition(k)
        assert p.num_states == 3 * k - 2
        assert UniformKPartitionProtocol.state_count(k) == 3 * k - 2

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_symmetric(self, k):
        # The headline property: no asymmetric transitions (Sec. 2.1).
        assert uniform_k_partition(k).is_symmetric

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_deterministic_by_construction(self, k):
        # TransitionTable.add raises on conflicts; validate() re-checks.
        uniform_k_partition(k).transitions.validate()

    def test_k_below_2_rejected(self):
        with pytest.raises(ProtocolError, match="k >= 2"):
            uniform_k_partition(1)
        with pytest.raises(ProtocolError, match="k >= 2"):
            UniformKPartitionProtocol.state_count(1)

    def test_non_integer_k_rejected(self):
        with pytest.raises(ProtocolError, match="integer"):
            uniform_k_partition(3.0)  # type: ignore[arg-type]

    def test_state_partition_blocks(self):
        p = uniform_k_partition(5)
        # I, G, M, D blocks are disjoint and cover Q.
        names = set(p.states)
        expected = {"initial", "initial'"}
        expected |= {f"g{i}" for i in range(1, 6)}
        expected |= {f"m{i}" for i in range(2, 5)}
        expected |= {f"d{i}" for i in range(1, 4)}
        assert names == expected

    def test_index_blocks(self):
        p = uniform_k_partition(4)
        space = p.space
        assert p.initial_indices == (space.index("initial"), space.index("initial'"))
        assert p.g_indices == tuple(space.index(f"g{i}") for i in range(1, 5))
        assert p.m_indices == (space.index("m2"), space.index("m3"))
        assert p.d_indices == (space.index("d1"), space.index("d2"))
        assert p.gk_index == space.index("g4")

    def test_k2_has_no_m_or_d(self):
        p = uniform_k_partition(2)
        assert p.m_indices == ()
        assert p.d_indices == ()
        assert set(p.states) == {"initial", "initial'", "g1", "g2"}

    def test_designated_initial_state(self):
        assert uniform_k_partition(3).initial_state == "initial"

    def test_metadata(self):
        meta = uniform_k_partition(7).metadata
        assert meta["k"] == 7
        assert meta["states"] == 19


class TestGroupMap:
    def test_group_map_follows_paper(self):
        p = uniform_k_partition(5)
        space = p.space
        assert space.group_of("initial") == 1
        assert space.group_of("initial'") == 1
        for i in range(1, 6):
            assert space.group_of(f"g{i}") == i
        for i in range(2, 5):
            assert space.group_of(f"m{i}") == i
        for i in range(1, 4):
            assert space.group_of(f"d{i}") == 1

    def test_num_groups(self):
        assert uniform_k_partition(9).num_groups == 9


class TestStableSignature:
    @pytest.mark.parametrize("k,n", [(3, 9), (3, 10), (3, 11), (4, 4), (4, 7),
                                     (5, 23), (2, 8), (2, 9), (6, 6)])
    def test_signature_counts_sum_to_n(self, k, n):
        p = uniform_k_partition(k)
        exp = p.expected_stable_counts(n)
        assert sum(exp.values()) == n

    @pytest.mark.parametrize("k,n", [(3, 9), (3, 10), (3, 11), (4, 7), (5, 23)])
    def test_signature_satisfies_lemma1(self, k, n):
        p = uniform_k_partition(k)
        counts = np.array([p.expected_stable_counts(n)[s] for s in p.states])
        assert p.satisfies_lemma1(counts)

    @pytest.mark.parametrize("k,n", [(3, 9), (3, 10), (3, 11), (4, 7), (5, 23)])
    def test_signature_is_stable(self, k, n):
        p = uniform_k_partition(k)
        counts = np.array([p.expected_stable_counts(n)[s] for s in p.states])
        assert p.stable(counts, n)
        assert p.stable(counts)  # n inferred from the counts

    def test_r0_signature(self):
        p = uniform_k_partition(3)
        exp = p.expected_stable_counts(9)
        assert exp["g1"] == exp["g2"] == exp["g3"] == 3
        assert exp["initial"] == exp["initial'"] == exp["m2"] == exp["d1"] == 0

    def test_r1_signature_has_one_free_agent(self):
        p = uniform_k_partition(3)
        exp = p.expected_stable_counts(10)
        assert exp["g1"] == exp["g2"] == exp["g3"] == 3
        assert exp["initial"] == 1

    def test_r1_signature_accepts_either_flavour(self):
        # Lemma 6 places the leftover agent in initial OR initial'.
        p = uniform_k_partition(3)
        counts = np.array([p.expected_stable_counts(10)[s] for s in p.states])
        assert p.stable(counts, 10)
        flipped = counts.copy()
        i0 = p.space.index("initial")
        i1 = p.space.index("initial'")
        flipped[i0], flipped[i1] = 0, 1
        assert p.stable(flipped, 10)

    def test_r_ge_2_signature_has_mr(self):
        p = uniform_k_partition(4)
        exp = p.expected_stable_counts(11)  # r = 3
        assert exp["g1"] == exp["g2"] == 3  # q + 1 for x <= r - 1
        assert exp["g3"] == exp["g4"] == 2
        assert exp["m3"] == 1

    def test_n_smaller_than_k(self):
        # n < k: floor(n/k) = 0 and the n agents fill g1..g_{n-1}, m_n.
        p = uniform_k_partition(6)
        exp = p.expected_stable_counts(4)
        assert exp["g1"] == exp["g2"] == exp["g3"] == 1
        assert exp["m4"] == 1
        sizes = p.expected_group_sizes(4)
        assert sizes.tolist() == [1, 1, 1, 1, 0, 0]

    def test_nonstable_counts_rejected(self):
        p = uniform_k_partition(3)
        assert not p.stable(p.initial_counts(9), 9)
        # gk correct but a d-agent lingers: not stable.
        bad = np.array([p.expected_stable_counts(10)[s] for s in p.states])
        bad[p.space.index("initial")] = 0
        bad[p.space.index("d1")] = 1
        assert not p.stable(bad, 10)

    @pytest.mark.parametrize("k,n", [(3, 9), (3, 10), (3, 11), (4, 7),
                                     (5, 23), (2, 9), (6, 4)])
    def test_expected_group_sizes_uniform(self, k, n):
        sizes = uniform_k_partition(k).expected_group_sizes(n)
        assert int(sizes.sum()) == n
        assert int(sizes.max() - sizes.min()) <= 1

    def test_nonpositive_n_rejected(self):
        with pytest.raises(ProtocolError, match="positive"):
            uniform_k_partition(3).expected_stable_counts(0)


class TestLemma1Residuals:
    def test_initial_configuration_trivially_satisfies(self):
        p = uniform_k_partition(4)
        assert p.satisfies_lemma1(p.initial_counts(10))

    def test_violating_configuration_detected(self):
        p = uniform_k_partition(4)
        counts = np.zeros(p.num_states, dtype=np.int64)
        counts[p.space.index("g1")] = 1  # a lone g1 breaks the invariant
        res = p.lemma1_residuals(counts)
        assert res[0] == 1
        assert not p.satisfies_lemma1(counts)

    def test_mid_execution_configuration(self):
        # {g1, g2, m3, initial x 3}: one chain in progress (k = 4).
        p = uniform_k_partition(4)
        counts = np.zeros(p.num_states, dtype=np.int64)
        counts[p.space.index("g1")] = 1
        counts[p.space.index("g2")] = 1
        counts[p.space.index("m3")] = 1
        counts[p.space.index("initial")] = 3
        assert p.satisfies_lemma1(counts)

    def test_residual_vector_length_k(self):
        p = uniform_k_partition(5)
        assert p.lemma1_residuals(p.initial_counts(7)).shape == (5,)


class TestMalformedCountVectors:
    """Regression: ``lemma1_residuals`` and ``stable`` used to crash
    with a bare ``IndexError`` (or silently mis-sum, for ``k = 2``
    where the M/D blocks are empty) on wrong-shape or negative count
    vectors.  They must reject malformed input with a named
    :class:`ProtocolError` instead."""

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_wrong_shape_rejected(self, k):
        p = uniform_k_partition(k)
        with pytest.raises(ProtocolError, match="shape"):
            p.lemma1_residuals([1, 2, 3] if p.num_states != 3 else [1, 2])
        with pytest.raises(ProtocolError, match="shape"):
            p.stable(np.zeros(p.num_states + 1, dtype=np.int64))

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_negative_counts_rejected(self, k):
        p = uniform_k_partition(k)
        bad = np.zeros(p.num_states, dtype=np.int64)
        bad[0] = -1
        with pytest.raises(ProtocolError, match="non-negative"):
            p.lemma1_residuals(bad)
        with pytest.raises(ProtocolError, match="non-negative"):
            p.stable(bad)

    def test_stable_rejects_nonpositive_population(self):
        p = uniform_k_partition(3)
        with pytest.raises(ProtocolError, match="positive"):
            p.stable(np.zeros(p.num_states, dtype=np.int64), 0)

    def test_matrix_input_rejected(self):
        p = uniform_k_partition(3)
        with pytest.raises(ProtocolError, match="shape"):
            p.lemma1_residuals(np.zeros((2, p.num_states), dtype=np.int64))


class TestEdgeRegimeExecutions:
    """End-to-end runs over the edge regimes of Lemmas 4-6: the
    bipartition base case ``k = 2``, mid-range ``k``, and the extreme
    ``k = n - 1`` / ``k = n`` points where every group is (nearly) a
    singleton."""

    @pytest.mark.parametrize(
        ("k", "n"),
        [(2, 9), (3, 9), (8, 9), (9, 9), (2, 10), (3, 10), (9, 10), (10, 10)],
    )
    def test_converges_to_signature_with_lemma1_held(self, k, n):
        from repro.conform import ConformanceMonitor, invariant_pack
        from repro.engine import build_engine

        p = uniform_k_partition(k)
        monitor = ConformanceMonitor(invariant_pack(p, n))
        r = build_engine("agent").run(
            p, n, seed=k * 1000 + n, max_interactions=500_000,
            on_effective=monitor,
        )
        assert r.converged
        assert p.stable(r.final_counts, n)
        assert monitor.checks_performed > 0
        q, rem = divmod(n, k)
        sizes = sorted(int(g) for g in r.group_sizes)
        assert sizes == sorted([q + 1] * rem + [q] * (k - rem))
