"""Figure 6 — scaling with the number of groups k at fixed n = 960.

Paper setting: fix n = 960 and sweep k over divisors of 960 (so
n mod k = 0), plotting mean interactions over 100 trials on a
*logarithmic* axis.  Conclusion: the interaction count grows
exponentially with k.  The paper's explanation: completing a grouping
requires an ``m``-state agent to meet ``k - 2`` free agents without
ever meeting another ``m``-state agent (which would trigger the
rule-8 teardown), and the probability of that streak decays
exponentially in k.

The count-based engine's null skipping is what makes this sweep
tractable in pure Python — at k = 10 a single execution exceeds
5 * 10^7 interactions of which only ~1% are effective.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..analysis.convergence import fit_exponential
from ..engine.base import Engine
from ..io.results import ResultTable
from .ascii_plot import line_plot
from .common import DEFAULT_SEED, GridPoint, grid_params, point_seed

__all__ = ["run_fig6", "render_fig6", "exponential_fit", "fig6_points", "QUICK_PARAMS"]

QUICK_PARAMS: dict = {
    "n": 120,
    "ks": (3, 4, 5, 6),
    "trials": 5,
}


def fig6_points(
    *,
    n: int = 960,
    ks: Sequence[int] = (3, 4, 5, 6, 8, 10),
    trials: int = 100,
    seed: int = DEFAULT_SEED,
) -> list[GridPoint]:
    """The Figure 6 grid: k swept at fixed n (every k divides n, as in the paper)."""
    for k in ks:
        if n % k:
            raise ValueError(f"k = {k} does not divide n = {n}; the paper keeps n mod k = 0")
    return [GridPoint(k, n, trials, point_seed(seed, "fig6", k, n)) for k in ks]


def run_fig6(
    *, engine: Engine | str | None = None, progress=None, **grid
) -> ResultTable:
    """Run the :func:`fig6_points` grid (``grid`` takes its keywords)."""
    table = ResultTable(name="fig6_scaling_k", params=grid_params(fig6_points, grid))
    for point in fig6_points(**grid):
        k = point.k
        ts = point.run(engine, progress, f"fig6 k={k}")
        table.append(
            k=k,
            n=point.n,
            trials=ts.trials,
            mean_interactions=ts.mean_interactions,
            std_interactions=ts.std_interactions,
            sem_interactions=ts.sem_interactions,
            mean_effective=float(ts.effective_interactions.mean()),
        )
        if progress is not None:
            progress(f"fig6 k={k}: mean={ts.mean_interactions:.3g}")
    return table


def render_fig6(table: ResultTable) -> str:
    ks = [float(v) for v in table.column("k")]
    ys = [float(v) for v in table.column("mean_interactions")]
    n = table.params.get("n", "?")
    plot = line_plot(
        {"mean interactions": (ks, ys)},
        title=f"Figure 6: interactions vs k at n = {n} (log y)",
        xlabel="k (number of groups)",
        ylabel="mean interactions",
        logy=True,
    )
    fit = exponential_fit(table)
    return (
        f"{plot}\n\n"
        f"semi-log fit: y = {fit.amplitude:.3g} * {fit.exponent:.2f}^k "
        f"(R2 = {fit.r_squared:.3f}) -> growth factor per unit k = {fit.exponent:.2f}"
    )


def exponential_fit(table: ResultTable):
    """Exponential fit of mean interactions vs k (the paper's claim)."""
    ks = [float(v) for v in table.column("k")]
    ys = [float(v) for v in table.column("mean_interactions")]
    return fit_exponential(ks, ys)
