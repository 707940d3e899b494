"""Tests for the figure-grid -> job-spec adapters.

The load-bearing property: a campaign that ran a grid leaves the
store's trial cache warm for the *experiment* that defined the grid —
which requires the adapter to reproduce the experiment's protocols,
parameters, and per-point seeds exactly.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.campaign import CampaignStore, experiment_specs, run_campaign
from repro.core.errors import CampaignError
from repro.engine.runner import use_trial_cache
from repro.experiments.common import point_seed
from repro.experiments.fig6_scaling_k import QUICK_PARAMS, run_fig6


class TestGridShapes:
    def test_fig3_quick_matches_experiment_grid(self):
        from repro.experiments.fig3_vary_n import QUICK_PARAMS as F3

        specs = experiment_specs("fig3", quick=True)
        assert len(specs) == len(F3["ks"]) * len(F3["n_values"])
        assert all(s.trials == F3["trials"] for s in specs)
        assert all(s.track_state is None for s in specs)

    def test_fig4_tracks_gk(self):
        specs = experiment_specs("fig4", quick=True)
        assert all(s.track_state == "g4" for s in specs if s.params["k"] == 4)

    def test_fig5_n_multiples(self):
        specs = experiment_specs("fig5", quick=True)
        from repro.experiments.fig5_scaling_n import QUICK_PARAMS as F5

        assert {s.n for s in specs} == {
            F5["base_n"] * u for u in F5["n_units"]
        }

    def test_fig6_seeds_match_experiment(self):
        specs = experiment_specs("fig6", quick=True, seed=123)
        for spec in specs:
            k = spec.params["k"]
            assert spec.seed == point_seed(123, "fig6", k, spec.n)

    def test_all_is_concatenation(self):
        from repro.campaign.grids import GRID_EXPERIMENTS

        total = len(experiment_specs("all", quick=True))
        parts = sum(
            len(experiment_specs(name, quick=True))
            for name in GRID_EXPERIMENTS
        )
        assert total == parts

    def test_trials_override(self):
        specs = experiment_specs("fig6", quick=True, trials=3)
        assert all(s.trials == 3 for s in specs)

    def test_unknown_grid_rejected(self):
        with pytest.raises(CampaignError, match="no campaign grid"):
            experiment_specs("state-table")

    def test_digests_unique_across_all(self):
        specs = experiment_specs("all", quick=True)
        digests = [s.digest for s in specs]
        assert len(set(digests)) == len(digests)


#: SHA-256 over the concatenated job digests of each grid at the
#: default seed, as ``(full, quick)``.  A change here changes which
#: trial-cache keys a campaign warms: every stored campaign goes cold.
PINNED_GRID_DIGESTS = {
    "fig3": (
        "0842608ca8fe452e8abf6003983f5adaefacf957f9d9aa2ad4321a9ce94133f3",
        "7645d1711d5199f705cd8759301d862d154559cdd560facb8a4726aa788c2f06",
    ),
    "fig4": (
        "36b0c65c1dba912fec14b648d3c3af02c92280020890c5f2034f9a7cb0b0e6f2",
        "efc748396d71c9b3ee71381720a2091bbd0784a93347b0f6336553a5688bccdb",
    ),
    "fig5": (
        "1e89be045041b59b4414de7628c5770ade3fe6039b54ba7460e4495ca0f64d86",
        "9b127a86744da51e21d66265ba55e67839c8dff9b331b4617cc4abc82e7188ba",
    ),
    "fig6": (
        "b97c71d34302475c3e175b872bbccf1c283cc7bc0020bba28e5536f149afefa4",
        "cfcec74f8bcdabe0b85b7792fcf5733fa74480be3c7fadbbddb301dc12d155f5",
    ),
    "scaling": (
        "73f737bb1f7b688475d93a3e850505817379b493b384b89edf21130e5bea5f6f",
        "11f54e27693fb0891729a7278837bf35979f418ca6b98665060c0733edcf64f0",
    ),
}


def grid_digest(specs) -> str:
    return hashlib.sha256("".join(s.digest for s in specs).encode()).hexdigest()


class TestPinnedGrids:
    @pytest.mark.parametrize("name", sorted(PINNED_GRID_DIGESTS))
    @pytest.mark.parametrize("quick", [False, True])
    def test_job_digests_pinned(self, name, quick):
        expected = PINNED_GRID_DIGESTS[name][int(quick)]
        assert grid_digest(experiment_specs(name, quick=quick)) == expected

    def test_every_grid_is_pinned(self):
        from repro.campaign.grids import GRID_EXPERIMENTS

        assert set(GRID_EXPERIMENTS) == set(PINNED_GRID_DIGESTS)

    def test_overrides_pinned(self):
        specs = experiment_specs("all", quick=True, seed=7, trials=3, engine="batch")
        assert grid_digest(specs) == (
            "f45fce633bc6fbfeeb74b5172fb94003cc6a6160c30cfaddbaeec4523631e42b"
        )


class TestCampaignServesExperiments:
    def test_campaign_warm_cache_serves_run_fig6(self, tmp_path):
        """A drained fig6 campaign makes run_fig6 a pure cache read."""
        store = CampaignStore(tmp_path / "campaign.db")
        store.submit_many(
            experiment_specs("fig6", quick=True, trials=2, seed=99)
        )
        run_campaign(store)

        cache = store.trial_cache()
        with use_trial_cache(cache):
            table = run_fig6(**{**QUICK_PARAMS, "trials": 2}, seed=99)
        assert cache.hits == len(table.rows) > 0
        assert cache.misses == 0

        # And the cached table is identical to a fresh computation.
        fresh = run_fig6(**{**QUICK_PARAMS, "trials": 2}, seed=99)
        assert table.rows == fresh.rows
        store.close()
