#!/usr/bin/env python
"""Engine cross-validation and the null-skipping payoff.

Every engine is built by its registry name (``build_engine``), and all
of them implement the same uniform-scheduler semantics.  This demo (1)
shows ``agent`` and ``batch`` — one pair-loop engine under two names —
producing the *identical* execution from the same seed, (2) KS-tests
the count engine's distributional equivalence, and (3) measures where
the count engine's closed-form null skipping starts to win.

Run:  python examples/engine_comparison.py
"""

from __future__ import annotations

import time

import numpy as np
from scipy import stats

from repro import build_engine, uniform_k_partition


def main() -> None:
    protocol = uniform_k_partition(4)
    batch = build_engine("batch")
    count = build_engine("count")

    print("=== 1. agent vs batch: exact twin executions ===\n")
    a = build_engine("agent").run(protocol, 50, seed=123)
    b = batch.run(protocol, 50, seed=123)
    print(f"  agent: {a.interactions} interactions, finals {a.final_counts.tolist()}")
    print(f"  batch: {b.interactions} interactions, finals {b.final_counts.tolist()}")
    assert a.interactions == b.interactions
    assert np.array_equal(a.final_counts, b.final_counts)
    print("  -> identical executions (same seed, same stream)\n")

    print("=== 2. count engine: same law, different path ===\n")
    trials = 150
    batch_counts = np.array(
        [batch.run(protocol, 20, seed=i).interactions for i in range(trials)]
    )
    count_counts = np.array(
        [count.run(protocol, 20, seed=10_000 + i).interactions for i in range(trials)]
    )
    ks = stats.ks_2samp(batch_counts, count_counts)
    print(f"  batch mean: {batch_counts.mean():8.1f}   count mean: {count_counts.mean():8.1f}")
    print(f"  KS statistic {ks.statistic:.3f}, p-value {ks.pvalue:.3f}")
    print("  -> statistically indistinguishable interaction counts\n")

    print("=== 3. where null skipping wins ===\n")
    print(f"  {'n':>5}  {'batch (s)':>10}  {'count (s)':>10}  {'speedup':>8}  {'eff. frac':>9}")
    for n in (60, 120, 240, 480, 960):
        t0 = time.perf_counter()
        rb = batch.run(protocol, n, seed=1)
        t_batch = time.perf_counter() - t0
        t0 = time.perf_counter()
        rc = count.run(protocol, n, seed=1)
        t_count = time.perf_counter() - t0
        frac = rc.effective_interactions / rc.interactions
        print(
            f"  {n:>5}  {t_batch:>10.3f}  {t_count:>10.3f}  "
            f"{t_batch / max(t_count, 1e-9):>7.1f}x  {frac:>9.3f}"
        )
    print(
        "\n  The effective fraction falls as n grows (more null meetings\n"
        "  between already-grouped agents), so the count engine's\n"
        "  O(#rules)-per-effective-interaction cost wins at scale - this\n"
        "  is what makes the paper's Figure 6 sweep tractable."
    )


if __name__ == "__main__":
    main()
