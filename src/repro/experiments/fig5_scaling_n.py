"""Figure 5 — scaling with n at n mod k = 0.

Paper setting: to remove the mod-k effect, simulate only multiples of
120 (``n = 120 * n'`` for n' = 1..8) for k in {3, 4, 5, 6} and plot the
mean interactions over 100 trials.  Conclusion: growth in n is "more
than linear but less than exponential".

This module adds the quantitative backing: a power-law fit per k (the
measured exponents land well above 1) and an explicit check that the
semi-log fit is worse than the log-log fit (i.e. the growth is closer
to polynomial than exponential), matching the paper's reading.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..analysis.convergence import fit_exponential, fit_power_law
from ..engine.base import Engine
from ..io.results import ResultTable
from .ascii_plot import line_plot
from .common import DEFAULT_SEED, GridPoint, grid_params, point_seed

__all__ = ["run_fig5", "render_fig5", "scaling_fits", "fig5_points", "QUICK_PARAMS"]

QUICK_PARAMS: dict = {
    "ks": (3, 4),
    "n_units": (1, 2, 3),
    "base_n": 24,
    "trials": 6,
}


def fig5_points(
    *,
    ks: Sequence[int] = (3, 4, 5, 6),
    n_units: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8),
    base_n: int = 120,
    trials: int = 100,
    seed: int = DEFAULT_SEED,
) -> list[GridPoint]:
    """The Figure 5 grid: ``n = base_n * n'`` for each k (all k divide ``base_n``)."""
    for k in ks:
        if base_n % k:
            raise ValueError(
                f"base_n = {base_n} must be a multiple of every k; k={k} is not a divisor"
            )
    return [
        GridPoint(k, base_n * unit, trials, point_seed(seed, "fig5", k, base_n * unit))
        for k in ks
        for unit in n_units
    ]


def run_fig5(
    *, engine: Engine | str | None = None, progress=None, **grid
) -> ResultTable:
    """Run the :func:`fig5_points` grid (``grid`` takes its keywords)."""
    table = ResultTable(name="fig5_scaling_n", params=grid_params(fig5_points, grid))
    for point in fig5_points(**grid):
        k, n = point.k, point.n
        ts = point.run(engine, progress, f"fig5 k={k} n={n}")
        table.append(
            k=k,
            n=n,
            trials=ts.trials,
            mean_interactions=ts.mean_interactions,
            std_interactions=ts.std_interactions,
            sem_interactions=ts.sem_interactions,
            mean_effective=float(ts.effective_interactions.mean()),
        )
        if progress is not None:
            progress(f"fig5 k={k} n={n}: mean={ts.mean_interactions:.0f}")
    return table


def render_fig5(table: ResultTable) -> str:
    series = {}
    for k in sorted({row["k"] for row in table.rows}):
        sub = table.where(k=k)
        series[f"k={k}"] = (sub.column("n"), sub.column("mean_interactions"))
    plot = line_plot(
        series,
        title="Figure 5: interactions vs n (n mod k = 0)",
        xlabel="n (population size)",
        ylabel="mean interactions",
    )
    fits = scaling_fits(table)
    lines = [plot, "", "growth fits (y = a * n^b vs y = a * b^n):"]
    for k, (power, expo) in sorted(fits.items()):
        verdict = "superlinear, subexponential" if (
            power.exponent > 1.0 and power.r_squared >= expo.r_squared
        ) else "inconclusive"
        lines.append(
            f"  k={k}: power b={power.exponent:.2f} (R2={power.r_squared:.3f})  "
            f"exp b={expo.exponent:.3f}/unit (R2={expo.r_squared:.3f})  -> {verdict}"
        )
    return "\n".join(lines)


def scaling_fits(table: ResultTable):
    """Per-k (power-law fit, exponential fit) of mean interactions vs n."""
    out = {}
    for k in sorted({row["k"] for row in table.rows}):
        sub = table.where(k=k)
        ns = [float(v) for v in sub.column("n")]
        ys = [float(v) for v in sub.column("mean_interactions")]
        if len(ns) >= 2:
            out[int(k)] = (fit_power_law(ns, ys), fit_exponential(ns, ys))
    return out
