"""Tests for the 2-state leader election building block."""

from __future__ import annotations

import pytest

from repro.engine import CountBasedEngine, build_engine, run_trials
from repro.protocols import FOLLOWER, LEADER, leader_election


@pytest.fixture(scope="module")
def proto():
    return leader_election()


class TestStructure:
    def test_two_states(self, proto):
        assert proto.num_states == 2
        assert set(proto.states) == {LEADER, FOLLOWER}

    def test_asymmetric_by_necessity(self, proto):
        # Symmetric protocols cannot elect a leader from identical
        # states - the reason Algorithm 1 uses the initial' toggle.
        assert not proto.is_symmetric

    def test_initial_state_all_leaders(self, proto):
        assert proto.initial_state == LEADER
        assert proto.initial_counts(5).tolist() == [5, 0]

    def test_single_rule(self, proto):
        assert proto.transitions.apply(LEADER, LEADER) == (LEADER, FOLLOWER)
        assert proto.transitions.apply(LEADER, FOLLOWER) == (LEADER, FOLLOWER)
        assert proto.transitions.apply(FOLLOWER, FOLLOWER) == (FOLLOWER, FOLLOWER)


class TestSimulation:
    @pytest.mark.parametrize("n", [2, 3, 10, 100])
    def test_exactly_one_leader_survives(self, proto, n):
        ts = run_trials(proto, n, trials=10, engine=CountBasedEngine(), seed=51)
        assert ts.all_converged
        for r in ts.results:
            assert proto.num_leaders(r.final_counts) == 1

    def test_leader_count_monotone(self, proto):
        leaders_seen = []

        def watch(interactions, counts):
            leaders_seen.append(counts[proto.leader_index])

        build_engine("agent").run(proto, 30, seed=52, on_effective=watch)
        assert all(a >= b for a, b in zip(leaders_seen, leaders_seen[1:]))
        assert leaders_seen[-1] == 1

    def test_stable_configuration_is_silent(self, proto):
        r = CountBasedEngine().run(proto, 10, seed=53)
        assert r.converged
        assert r.silent

    def test_interactions_scale_quadratically_ish(self, proto):
        # Coupon-collector-like: expected interactions ~ Theta(n^2)
        # under the uniform scheduler.  Sanity-check the trend only.
        small = run_trials(proto, 10, trials=20, seed=54).mean_interactions
        large = run_trials(proto, 40, trials=20, seed=55).mean_interactions
        assert large > 4 * small
