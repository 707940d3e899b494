"""Tests for the metrics recorders and milestone aggregation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    AgentBasedEngine,
    TimeSeriesRecorder,
    aggregate_milestones,
)
from repro.protocols import uniform_k_partition


@pytest.fixture(scope="module")
def proto():
    return uniform_k_partition(3)


class TestTimeSeriesRecorder:
    def test_records_every_effective_step(self, proto):
        rec = TimeSeriesRecorder()
        r = AgentBasedEngine().run(proto, 9, seed=0, on_effective=rec)
        # Every effective step, plus the primed step-0 snapshot.
        assert len(rec.times) == r.effective_interactions + 1
        times, snaps = rec.as_arrays()
        assert times.shape[0] == snaps.shape[0]
        assert snaps.shape[1] == proto.num_states
        assert (snaps.sum(axis=1) == 9).all()

    def test_initial_configuration_recorded(self, proto):
        """Regression: stride > 1 used to skip the step-0 snapshot."""
        rec = TimeSeriesRecorder(stride=7)
        AgentBasedEngine().run(proto, 9, seed=1, on_effective=rec)
        assert rec.times[0] == 0
        initial = proto.initial_counts(9)
        assert rec.snapshots[0] == [int(c) for c in initial]

    def test_final_configuration_recorded(self, proto):
        """Regression: stride > 1 used to drop the converged snapshot."""
        rec = TimeSeriesRecorder(stride=7)
        r = AgentBasedEngine().run(proto, 9, seed=2, on_effective=rec)
        assert rec.times[-1] == r.interactions
        assert rec.snapshots[-1] == [int(c) for c in r.final_counts]

    def test_stride(self, proto):
        rec = TimeSeriesRecorder(stride=5)
        r = AgentBasedEngine().run(proto, 9, seed=1, on_effective=rec)
        # Interior samples every 5 effective steps, plus the primed
        # step 0 and (unless it coincided) the finalized endpoint.
        interior = r.effective_interactions // 5
        assert interior + 1 <= len(rec.times) <= interior + 2

    def test_no_duplicate_endpoint(self, proto):
        """finalize() must not re-record a final step stride=1 sampled."""
        rec = TimeSeriesRecorder(stride=1)
        AgentBasedEngine().run(proto, 9, seed=2, on_effective=rec)
        times, _ = rec.as_arrays()
        assert (np.diff(times) > 0).all()

    def test_times_monotone(self, proto):
        rec = TimeSeriesRecorder(stride=4)
        AgentBasedEngine().run(proto, 9, seed=2, on_effective=rec)
        times, _ = rec.as_arrays()
        assert (np.diff(times) > 0).all()

    def test_stride_validation(self):
        from repro.core.errors import SimulationError

        with pytest.raises(SimulationError):
            TimeSeriesRecorder(stride=0)


class TestAggregateMilestones:
    def test_basic_mean(self):
        out = aggregate_milestones([[10, 20], [30, 40]])
        assert out.tolist() == [20.0, 30.0]

    def test_ragged_lists(self):
        out = aggregate_milestones([[10], [30, 50]])
        assert out[0] == 20.0
        assert out[1] == 50.0

    def test_num_milestones_padding(self):
        out = aggregate_milestones([[10]], num_milestones=3)
        assert out[0] == 10.0
        assert np.isnan(out[1]) and np.isnan(out[2])

    def test_empty(self):
        assert aggregate_milestones([]).size == 0
        assert aggregate_milestones([[], []]).size == 0
