"""Stabilization-time distribution (extension beyond the paper).

The paper reports only *means* over 100 executions.  The distribution
behind those means is strongly right-skewed: most executions finish
quickly, but runs in which chains repeatedly collide (rule 8) or the
final grouping keeps missing its free agents pay a long tail.  This
experiment quantifies the shape — quantiles, skewness, and the
mean/median ratio — because it affects how many trials one needs for a
stable mean (and explains the jitter visible in the paper's Figure 3).
"""

from __future__ import annotations

import numpy as np

from ..engine.base import Engine
from ..engine.runner import run_trials
from ..io.results import ResultTable
from ..protocols.kpartition import uniform_k_partition
from .common import DEFAULT_SEED, point_seed

__all__ = ["run_distribution", "render_distribution", "QUICK_PARAMS"]

QUICK_PARAMS: dict = {"points": ((3, 30),), "trials": 200}


def run_distribution(
    *,
    points=((3, 60), (4, 60), (6, 60), (4, 120)),
    trials: int = 1000,
    seed: int = DEFAULT_SEED,
    engine: Engine | None = None,
    progress=None,
) -> ResultTable:
    """Estimate the stabilization-time distribution per (k, n)."""
    from scipy import stats

    table = ResultTable(
        name="distribution",
        params={"points": [list(p) for p in points], "trials": trials, "seed": seed},
    )
    for k, n in points:
        protocol = uniform_k_partition(k)
        ts = run_trials(
            protocol, n, trials=trials, engine=engine,
            seed=point_seed(seed, "dist", k, n),
        )
        x = ts.interactions.astype(np.float64)
        q = np.quantile(x, [0.05, 0.25, 0.5, 0.75, 0.95, 0.99])
        table.append(
            k=k,
            n=n,
            trials=trials,
            mean=float(x.mean()),
            median=float(q[2]),
            p05=float(q[0]),
            p25=float(q[1]),
            p75=float(q[3]),
            p95=float(q[4]),
            p99=float(q[5]),
            mean_over_median=float(x.mean() / q[2]),
            skewness=float(stats.skew(x)),
        )
        if progress is not None:
            progress(
                f"dist k={k} n={n}: mean={x.mean():.0f} median={q[2]:.0f} "
                f"p99={q[5]:.0f}"
            )
    return table


def render_distribution(table: ResultTable) -> str:
    header = (
        "Stabilization-time distribution (the paper reports only means).\n"
        "mean/median > 1 and positive skewness quantify the right tail\n"
        "from repeated chain collisions and final-grouping waits.\n"
    )
    return header + table.render(floatfmt=".2f")
