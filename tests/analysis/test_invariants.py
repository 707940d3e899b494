"""Lemma 1 checked live and along traces, through the one step observer.

:class:`~repro.conform.ConformanceMonitor` over an invariant pack is the
live checker.  These tests pin its stride, its ``finalize`` coverage of
the terminal configuration and the context its
:class:`InvariantViolation` carries, on the paper's Lemma 1 and on
custom checks, and check Lemma 1 along recorded traces with
:func:`~repro.conform.check_counts`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import InvariantViolation
from repro.conform import ConformanceMonitor, Invariant, check_counts, invariant_pack
from repro.engine import AgentBasedEngine, CountBasedEngine
from repro.protocols import uniform_k_partition


@pytest.fixture(scope="module")
def proto():
    return uniform_k_partition(4)


def lemma1_pack(proto, n):
    return [inv for inv in invariant_pack(proto, n) if inv.name == "lemma1"]


def custom(check, name, *, every=1):
    """A monitor over one custom check ``check(counts) -> bool``."""
    invariant = Invariant(name, name, lambda counts: None if check(counts) else "failed")
    return ConformanceMonitor([invariant], every=every)


class TestMonitor:
    def test_lemma1_holds_through_full_execution(self, proto):
        """Dynamic verification of Lemma 1 (the paper proves it by
        induction; we check it on every effective step of real runs)."""
        monitor = ConformanceMonitor(lemma1_pack(proto, 20))
        r = AgentBasedEngine().run(proto, 20, seed=0, on_effective=monitor)
        assert r.converged
        # The initial configuration, then every effective step; finalize
        # is skipped because the last call already checked the end.
        assert monitor.checks_performed == r.effective_interactions + 1

    def test_lemma1_holds_on_count_engine_too(self, proto):
        monitor = ConformanceMonitor(lemma1_pack(proto, 20))
        r = CountBasedEngine().run(proto, 20, seed=1, on_effective=monitor)
        assert r.converged
        assert monitor.checks_performed == r.effective_interactions + 1

    def test_violation_raises(self):
        monitor = custom(lambda counts: False, "always-false")
        with pytest.raises(InvariantViolation, match="always-false"):
            monitor(17, [1, 2, 3])

    def test_violation_carries_context(self):
        monitor = custom(lambda counts: False, "ctx")
        with pytest.raises(InvariantViolation) as info:
            monitor(42, [5])
        assert info.value.interactions == 42
        assert info.value.counts == [5]

    def test_every_parameter(self):
        monitor = custom(lambda counts: True, "sampled", every=3)
        for i in range(9):
            monitor(i, [0])
        assert monitor.checks_performed == 3

    def test_invalid_every(self, proto):
        with pytest.raises(ValueError):
            ConformanceMonitor(lemma1_pack(proto, 4), every=-1)

    def test_monitor_detects_seeded_corruption(self, proto):
        """A deliberately corrupted execution must be flagged."""
        monitor = ConformanceMonitor(lemma1_pack(proto, 5))
        # Configuration with a gratuitous g1: violates Lemma 1.
        bad = [0] * proto.num_states
        bad[proto.space.index("g1")] = 2
        bad[proto.space.index("initial")] = 3
        with pytest.raises(InvariantViolation, match="lemma1"):
            monitor(1, bad)


class TestFinalizeHook:
    """Regression: with ``every > 1`` the stride could land just past
    the last effective interaction, so the terminal configuration was
    never checked at all.  The ``finalize`` hook closes that gap."""

    def test_huge_stride_still_checks_terminal(self, proto):
        # A run that ends on its budget, not on convergence: the
        # terminal configuration is checked all the same.
        monitor = ConformanceMonitor(lemma1_pack(proto, 20), every=10**9)
        r = AgentBasedEngine().run(
            proto, 20, seed=0, max_interactions=50, on_effective=monitor
        )
        assert not r.converged
        # Nothing matched the stride: the initial configuration (prime)
        # and the terminal one (finalize) are the only checks.
        assert monitor.checks_performed == 2

    def test_terminal_violation_not_missed_by_stride(self):
        monitor = custom(lambda counts: False, "bad-end", every=10)
        monitor(1, [0])  # stride not reached: silently skipped
        with pytest.raises(InvariantViolation, match="bad-end"):
            monitor.finalize(2, [0])

    def test_finalize_skips_when_last_call_checked(self):
        monitor = custom(lambda counts: True, "ok", every=2)
        monitor(1, [0])
        monitor(2, [1])  # stride hit: evaluated
        monitor.finalize(2, [1])
        assert monitor.checks_performed == 1  # finalize was a no-op

    def test_finalize_checks_on_zero_calls(self):
        # A run with no effective interactions still checks its (only)
        # configuration.
        monitor = custom(lambda counts: True, "ok", every=5)
        monitor.finalize(0, [3])
        assert monitor.checks_performed == 1

    def test_count_engine_invokes_finalize(self, proto):
        monitor = ConformanceMonitor(lemma1_pack(proto, 20), every=10**9)
        r = CountBasedEngine().run(proto, 20, seed=3, on_effective=monitor)
        assert r.converged
        assert monitor.checks_performed == 2


class TestHoldsAlong:
    def test_on_recorded_trace(self, proto):
        from repro.core import Population, record_script

        pop = Population(proto, n=6)
        trace = record_script(pop, [(0, 1), (2, 3), (0, 2), (0, 1)])
        pack = invariant_pack(proto, 6)
        assert all(not check_counts(pack, c.counts) for c in trace.configurations)

    def test_detects_bad_sequence(self, proto):
        bad = np.zeros(proto.num_states, dtype=np.int64)
        bad[proto.space.index("g2")] = 1
        pack = lemma1_pack(proto, 4)
        assert check_counts(pack, proto.initial_counts(4)) == []
        assert check_counts(pack, bad)
