"""Tests for the multi-trial runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SimulationError
from repro.engine import BatchEngine, CountBasedEngine, run_trials
from repro.protocols import uniform_k_partition


@pytest.fixture(scope="module")
def proto():
    return uniform_k_partition(3)


class TestRunTrials:
    def test_basic(self, proto):
        ts = run_trials(proto, 12, trials=10, seed=0)
        assert ts.trials == 10
        assert ts.n == 12
        assert ts.all_converged
        assert ts.interactions.shape == (10,)
        assert ts.mean_interactions > 0

    def test_default_engine_is_count(self, proto):
        ts = run_trials(proto, 9, trials=2, seed=1)
        assert ts.engine == "count"

    def test_reproducible(self, proto):
        a = run_trials(proto, 12, trials=5, seed=2)
        b = run_trials(proto, 12, trials=5, seed=2)
        assert np.array_equal(a.interactions, b.interactions)

    def test_trials_are_independent(self, proto):
        ts = run_trials(proto, 20, trials=8, seed=3)
        assert len(set(ts.interactions.tolist())) > 1

    def test_prefix_stability_of_seeding(self, proto):
        # Running more trials never changes the earlier ones.
        short = run_trials(proto, 12, trials=3, seed=4)
        long = run_trials(proto, 12, trials=6, seed=4)
        assert np.array_equal(short.interactions, long.interactions[:3])

    def test_statistics(self, proto):
        ts = run_trials(proto, 12, trials=10, seed=5)
        assert ts.std_interactions >= 0
        assert ts.sem_interactions == pytest.approx(
            ts.std_interactions / np.sqrt(10)
        )

    def test_single_trial_statistics(self, proto):
        ts = run_trials(proto, 12, trials=1, seed=6)
        assert ts.std_interactions == 0.0
        assert ts.sem_interactions == 0.0

    def test_track_state_forwarded(self, proto):
        ts = run_trials(proto, 12, trials=3, seed=7, track_state="g3")
        for m in ts.milestone_lists():
            assert len(m) == 4

    def test_engine_override(self, proto):
        ts = run_trials(proto, 9, trials=2, engine=BatchEngine(), seed=8)
        assert ts.engine == "batch"

    def test_progress_callback(self, proto):
        seen = []
        run_trials(
            proto, 9, trials=4, seed=9,
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_progress_callback_batch_engine(self, proto):
        # Vectorized engines simulate the whole chunk at once and
        # report it as one jump to completion.
        seen = []
        run_trials(
            proto, 9, trials=4, seed=9, engine="ensemble",
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen == [(4, 4)]

    def test_progress_callback_workers(self, proto):
        seen = []
        run_trials(
            proto, 9, trials=4, seed=9, workers=2,
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen == [(2, 4), (4, 4)]

    def test_require_convergence_raises(self, proto):
        with pytest.raises(SimulationError, match="did not stabilize"):
            run_trials(proto, 40, trials=2, seed=10, max_interactions=10)

    def test_censored_trials_allowed_when_opted_in(self, proto):
        ts = run_trials(
            proto, 40, trials=2, seed=11, max_interactions=10,
            require_convergence=False,
        )
        assert not ts.all_converged
        assert (ts.interactions == 10).all()

    def test_zero_trials_rejected(self, proto):
        with pytest.raises(SimulationError, match="positive"):
            run_trials(proto, 9, trials=0)

    def test_generator_seed_rejected(self, proto):
        # Generators cannot be split reproducibly.
        with pytest.raises(TypeError, match="cannot spawn"):
            run_trials(proto, 9, trials=2, seed=np.random.default_rng(0))

    def test_summary_strings(self, proto):
        ts = run_trials(proto, 9, trials=2, seed=12)
        assert "mean=" in ts.summary()
        assert "stable" in ts.results[0].summary()

    def test_initial_counts_forwarded(self, proto):
        counts = np.zeros(proto.num_states, dtype=np.int64)
        counts[proto.space.index("initial")] = 6
        ts = run_trials(
            proto, initial_counts=counts, trials=3, seed=13,
            engine=CountBasedEngine(),
        )
        assert ts.n == 6


class TestParallelWorkers:
    def test_parallel_bit_identical_to_serial(self, proto):
        a = run_trials(proto, 12, trials=6, seed=20)
        b = run_trials(proto, 12, trials=6, seed=20, workers=2)
        assert np.array_equal(a.interactions, b.interactions)
        assert a.engine == b.engine

    def test_parallel_with_tracking(self, proto):
        a = run_trials(proto, 12, trials=4, seed=21, track_state="g3")
        b = run_trials(proto, 12, trials=4, seed=21, track_state="g3", workers=2)
        assert a.milestone_lists() == b.milestone_lists()

    def test_invalid_workers(self, proto):
        with pytest.raises(SimulationError, match="workers"):
            run_trials(proto, 9, trials=2, workers=0)

    def test_parallel_convergence_enforcement(self, proto):
        with pytest.raises(SimulationError, match="did not stabilize"):
            run_trials(proto, 40, trials=2, seed=22, max_interactions=10, workers=2)

    def test_chunking_bit_identical_for_every_worker_count(self, proto):
        # Trials are split into ceil(trials/workers) contiguous chunks;
        # per-trial seeds make the outcome independent of the split.
        base = run_trials(proto, 12, trials=7, seed=23)
        for workers in (2, 3, 4, 7, 12):
            split = run_trials(proto, 12, trials=7, seed=23, workers=workers)
            assert np.array_equal(base.interactions, split.interactions)

    def test_workers_exceeding_trials(self, proto):
        ts = run_trials(proto, 12, trials=2, seed=24, workers=5)
        assert ts.trials == 2

    def test_parallel_ensemble_engine_deterministic(self, proto):
        a = run_trials(proto, 12, trials=8, seed=25, engine="ensemble", workers=2)
        b = run_trials(proto, 12, trials=8, seed=25, engine="ensemble", workers=2)
        assert np.array_equal(a.interactions, b.interactions)
        assert a.engine == "ensemble"


class TestTrialCache:
    def test_cache_hit_is_bit_identical(self, proto):
        from repro.engine import InMemoryTrialCache

        cache = InMemoryTrialCache()
        a = run_trials(proto, 12, trials=5, seed=30, cache=cache)
        assert cache.hits == 0 and cache.misses == 1
        b = run_trials(proto, 12, trials=5, seed=30, cache=cache)
        assert cache.hits == 1
        assert np.array_equal(a.interactions, b.interactions)
        assert np.array_equal(a.effective_interactions, b.effective_interactions)
        for ra, rb in zip(a.results, b.results):
            assert np.array_equal(ra.final_counts, rb.final_counts)
            assert np.array_equal(ra.group_sizes, rb.group_sizes)
            assert ra.tracked_milestones == rb.tracked_milestones

    def test_cache_distinguishes_parameters(self, proto):
        from repro.engine import InMemoryTrialCache

        cache = InMemoryTrialCache()
        run_trials(proto, 12, trials=3, seed=31, cache=cache)
        run_trials(proto, 12, trials=3, seed=32, cache=cache)
        run_trials(proto, 15, trials=3, seed=31, cache=cache)
        run_trials(proto, 12, trials=4, seed=31, cache=cache)
        assert cache.hits == 0 and len(cache) == 4

    def test_use_trial_cache_context(self, proto):
        from repro.engine import InMemoryTrialCache, use_trial_cache

        cache = InMemoryTrialCache()
        with use_trial_cache(cache):
            run_trials(proto, 12, trials=3, seed=33)
            run_trials(proto, 12, trials=3, seed=33)
        assert cache.hits == 1 and cache.misses == 1
        # Outside the context the cache is no longer consulted.
        run_trials(proto, 12, trials=3, seed=33)
        assert cache.hits == 1

    def test_cache_hit_enforces_convergence_before_progress(self, proto):
        """Regression: a cache hit fired ``progress(trials, trials)``
        before re-checking convergence, so a caller with
        ``require_convergence=True`` saw a '100% done' report for a run
        that then raised."""
        from repro.core.errors import SimulationError
        from repro.engine import InMemoryTrialCache

        cache = InMemoryTrialCache()
        # Seed the cache with a truncated, non-converged trial set.
        ts = run_trials(
            proto, 12, trials=3, seed=36, max_interactions=2,
            require_convergence=False, cache=cache,
        )
        assert not ts.all_converged
        calls: list[tuple[int, int]] = []
        with pytest.raises(SimulationError):
            run_trials(
                proto, 12, trials=3, seed=36, max_interactions=2,
                require_convergence=True, cache=cache,
                progress=lambda done, total: calls.append((done, total)),
            )
        assert cache.hits == 1
        assert calls == [], "progress reported completion for a failed run"

    def test_cache_hit_still_reports_progress_on_success(self, proto):
        from repro.engine import InMemoryTrialCache

        cache = InMemoryTrialCache()
        run_trials(proto, 12, trials=3, seed=37, cache=cache)
        calls: list[tuple[int, int]] = []
        run_trials(
            proto, 12, trials=3, seed=37, cache=cache,
            progress=lambda done, total: calls.append((done, total)),
        )
        assert calls == [(3, 3)]

    def test_seed_sequence_not_cacheable(self, proto):
        from repro.engine import InMemoryTrialCache

        cache = InMemoryTrialCache()
        run_trials(
            proto, 12, trials=3, seed=np.random.SeedSequence(34), cache=cache
        )
        assert len(cache) == 0

    def test_record_round_trip(self, proto):
        from repro.engine import TrialSet

        ts = run_trials(proto, 12, trials=4, seed=35, track_state="g3")
        back = TrialSet.from_record(ts.to_record())
        assert back.protocol == ts.protocol
        assert back.engine == ts.engine
        assert np.array_equal(back.interactions, ts.interactions)
        assert back.milestone_lists() == ts.milestone_lists()
        assert back.stats() == ts.stats()
        # JSON-safe: survives an actual encode/decode cycle.
        import json

        again = TrialSet.from_record(json.loads(json.dumps(ts.to_record())))
        assert np.array_equal(again.interactions, ts.interactions)


class TestEngineResolution:
    def test_engine_by_name(self, proto):
        a = run_trials(proto, 12, trials=3, seed=26, engine="count")
        b = run_trials(proto, 12, trials=3, seed=26, engine=CountBasedEngine())
        assert np.array_equal(a.interactions, b.interactions)

    def test_unknown_engine_rejected(self, proto):
        with pytest.raises(SimulationError, match="unknown engine"):
            run_trials(proto, 12, trials=2, engine="warp-drive")

    def test_unknown_engine_is_a_value_error(self, proto):
        with pytest.raises(ValueError):
            run_trials(proto, 12, trials=2, engine="warp-drive")

    def test_unknown_engine_lists_valid_names_and_suggests(self):
        from repro.engine import available_engines, build_engine

        with pytest.raises(SimulationError) as excinfo:
            build_engine("cuont")
        message = str(excinfo.value)
        for name in available_engines():
            assert name in message
        assert "did you mean" in message and "count" in message

    @pytest.mark.parametrize(
        ("typo", "expected"),
        [
            ("count-jitt", "count-jit"),
            ("batch-jti", "batch-jit"),
            ("ensemble-paralel", "ensemble-parallel"),
        ],
    )
    def test_unknown_engine_suggests_new_tier_names(self, typo, expected):
        from repro.engine import build_engine

        with pytest.raises(SimulationError) as excinfo:
            build_engine(typo)
        assert f"did you mean {expected!r}?" in str(excinfo.value)

    def test_registry_round_trip(self):
        from repro.engine import available_engines, build_engine

        names = available_engines()
        assert names == (
            "agent",
            "batch",
            "batch-jit",
            "count",
            "count-jit",
            "ensemble",
            "ensemble-parallel",
            "graph",
            "hybrid",
        )
        for name in names:
            assert build_engine(name).name == name

    def test_result_flags_are_plain_bools(self, proto):
        # numpy bools break json.dumps of records (campaign stores,
        # result files, HTTP bodies).
        from repro.engine import available_engines

        for name in available_engines():
            scheduler = "graph:complete" if name == "graph" else None
            ts = run_trials(
                proto, 12, trials=2, seed=5, engine=name, scheduler=scheduler
            )
            for result in ts.results:
                assert type(result.silent) is bool, name
                assert type(result.converged) is bool, name

    def test_count_jit_record_round_trips_through_json(self, proto):
        import json

        record = run_trials(proto, 20, trials=2, seed=0, engine="count-jit").to_record()
        assert json.loads(json.dumps(record)) == record


class TestTrialFingerprint:
    """Trial-cache keys: any change orphans every cached trial set."""

    @pytest.mark.parametrize("kwargs, digest", [
        (
            {"engine": "count"},
            "ce0fd2d8e3c4f6dbae16671bb5e495fb0e42a8f3c38bcc7599b17bc10f1a7fa8",
        ),
        (
            {"engine": "agent", "max_interactions": 5000, "scheduler": "roundrobin"},
            "8c60483feec1bafaf26284a8e7d167f59256bbad6c19179be03bbefb0e9ec60f",
        ),
    ])
    def test_pinned_digest(self, proto, kwargs, digest):
        from repro.engine.runner import trial_fingerprint

        assert trial_fingerprint(proto, 30, trials=10, seed=7, **kwargs) == digest
