"""Cross-engine equivalence — the library's central validity argument.

Three independent implementations of the same semantics:

* agent vs batch: **exact** — both draw their pairs through
  ``repro.scheduling.uniform.uniform_pairs`` in ``PAIR_BLOCK``-sized
  refills, so the same seed means the same random stream and therefore
  the identical execution (``test_pinned_records.py`` pins the stream
  itself, which an agent-vs-batch comparison cannot).
* count vs batch: **distributional** — the jump chain provably has the
  same law; checked with KS tests on fixed (non-flaky) seeds, and by
  mean/variance comparisons.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.engine import AgentBasedEngine, BatchEngine, CountBasedEngine
from repro.protocols import (
    approximate_k_partition,
    leader_election,
    uniform_bipartition,
    uniform_k_partition,
)


class TestAgentBatchExact:
    @pytest.mark.parametrize("n,seed", [(11, 0), (20, 1), (33, 2), (10, 3)])
    def test_identical_executions_kpartition(self, n, seed):
        p = uniform_k_partition(3)
        a = AgentBasedEngine().run(p, n, seed=seed, track_state="g3")
        b = BatchEngine().run(p, n, seed=seed, track_state="g3")
        assert a.interactions == b.interactions
        assert a.effective_interactions == b.effective_interactions
        assert np.array_equal(a.final_counts, b.final_counts)
        assert a.tracked_milestones == b.tracked_milestones

    def test_identical_executions_other_protocols(self):
        for p in (uniform_bipartition(), leader_election(), approximate_k_partition(3)):
            a = AgentBasedEngine().run(p, 14, seed=5)
            b = BatchEngine().run(p, 14, seed=5)
            assert a.interactions == b.interactions, p.name
            assert np.array_equal(a.final_counts, b.final_counts), p.name


class TestCountDistributional:
    @pytest.mark.parametrize(
        "proto_factory,n",
        [
            (lambda: uniform_k_partition(3), 12),
            (lambda: uniform_k_partition(4), 16),
            (lambda: uniform_bipartition(), 14),
            (lambda: leader_election(), 15),
        ],
        ids=["k3", "k4", "bip", "leader"],
    )
    def test_interaction_count_law_matches(self, proto_factory, n):
        p = proto_factory()
        trials = 120
        count = np.array(
            [CountBasedEngine().run(p, n, seed=100 + i).interactions for i in range(trials)]
        )
        batch = np.array(
            [BatchEngine().run(p, n, seed=7000 + i).interactions for i in range(trials)]
        )
        assert stats.ks_2samp(count, batch).pvalue > 0.005

    def test_effective_count_law_matches(self):
        p = uniform_k_partition(3)
        trials = 120
        count = np.array(
            [
                CountBasedEngine().run(p, 12, seed=200 + i).effective_interactions
                for i in range(trials)
            ]
        )
        batch = np.array(
            [
                BatchEngine().run(p, 12, seed=8000 + i).effective_interactions
                for i in range(trials)
            ]
        )
        assert stats.ks_2samp(count, batch).pvalue > 0.005

    def test_final_configuration_identical_everywhere(self):
        # All engines must land on the same stable signature.
        p = uniform_k_partition(5)
        finals = [
            engine.run(p, 23, seed=9).final_counts
            for engine in (AgentBasedEngine(), BatchEngine(), CountBasedEngine())
        ]
        # n = 23, k = 5 -> r = 3: the only freedom is the free-agent
        # flavour (none here since r != 1), so counts agree exactly.
        assert np.array_equal(finals[0], finals[1])
        assert np.array_equal(finals[1], finals[2])

    def test_milestone_law_matches(self):
        """NI_1 (first grouping) distribution agrees across engines."""
        p = uniform_k_partition(3)
        trials = 120
        count = np.array(
            [
                CountBasedEngine().run(p, 12, seed=300 + i, track_state="g3").tracked_milestones[0]
                for i in range(trials)
            ]
        )
        batch = np.array(
            [
                BatchEngine().run(p, 12, seed=300 + i, track_state="g3").tracked_milestones[0]
                for i in range(trials)
            ]
        )
        assert stats.ks_2samp(count, batch).pvalue > 0.005
