"""Scaling-law study — convergence cost at up to 50x paper scale.

The paper's figures stop near n = 1000.  This experiment sweeps
population sizes up to n = 50,000 for k up to 32 (the default grid of
:func:`scaling_points`; larger populations are an ``n_values``
argument of :func:`run_scaling_law`), keeps *per-trial* interaction
counts (the bootstrap needs the raw samples, not just means), fits
``interactions ~ a * n^b * (ln n)^c`` per k with percentile-bootstrap
confidence intervals, and reports where each fitted curve crosses
practical interaction budgets.

Scale notes:

* Population sizes are snapped to multiples of k (the paper's Figure 5
  trick) so the mod-k sawtooth does not contaminate the fit.
* The full default grid is meant to run through the campaign layer:
  ``repro-experiments campaign run --experiment scaling --columnar DIR``
  streams one row per trial into a columnar shard store.  The
  default ``count`` engine runs the compiled jump-chain kernel when a
  native backend is available.
* Rows are per trial, so tables get big: ``write_outputs`` also emits
  a ``.columnar`` shard directory and ``results query`` aggregates it
  out of core.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..analysis.scaling import (
    DEFAULT_LOG_EXPONENT_GRID,
    ScalingFit,
    bootstrap_scaling_fit,
    budget_crossing,
)
from ..engine.base import Engine
from ..io.results import ResultTable
from .ascii_plot import line_plot
from .common import DEFAULT_SEED, GridPoint, grid_params, point_seed

__all__ = [
    "run_scaling_law",
    "render_scaling_law",
    "scaling_report",
    "grid_points",
    "scaling_points",
    "QUICK_PARAMS",
    "DEFAULT_BUDGETS",
]

QUICK_PARAMS: dict = {
    "ks": (2, 4),
    "n_values": (240, 480, 960, 1920),
    "trials": 6,
    "bootstrap": 40,
}

#: Interaction budgets the report locates crossings for.  On the
#: compiled kernel tier (BENCH_kernels.json) 1e8 interactions is
#: roughly a minute of single-core work — the budgets bracket
#: "interactive", "overnight", and "cluster" regimes.
DEFAULT_BUDGETS: tuple[float, ...] = (1e8, 1e10, 1e12)


def grid_points(
    ks: Sequence[int], n_values: Sequence[int]
) -> list[tuple[int, int]]:
    """The (k, n) sweep grid with n snapped to a multiple of k.

    Snapping removes the mod-k sawtooth from the fit; duplicates after
    snapping collapse.
    """
    points: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for k in ks:
        if k < 2:
            raise ValueError(f"k must be at least 2, got {k}")
        for n_raw in n_values:
            n = max(2 * k, round(n_raw / k) * k)
            if (k, n) not in seen:
                seen.add((k, n))
                points.append((k, n))
    return points


def scaling_points(
    *,
    ks: Sequence[int] = (2, 4, 8, 16, 32),
    n_values: Sequence[int] = (1_000, 2_000, 5_000, 10_000, 20_000, 50_000),
    trials: int = 20,
    seed: int = DEFAULT_SEED,
) -> list[GridPoint]:
    """The scaling-law grid: one point per snapped (k, n) of :func:`grid_points`."""
    return [
        GridPoint(k, n, trials, point_seed(seed, "scaling-law", k, n))
        for k, n in grid_points(ks, n_values)
    ]


def run_scaling_law(
    *,
    engine: Engine | str | None = None,
    bootstrap: int = 200,
    progress=None,
    **grid,
) -> ResultTable:
    """Run the :func:`scaling_points` grid keeping one row per trial.

    ``grid`` takes the keywords of :func:`scaling_points`; ``bootstrap``
    is the resample count of the fit in :func:`scaling_report`.
    Per-trial rows (rather than per-point summaries) are the point of
    this experiment: the bootstrap resamples them, and the columnar
    backend is exercised at realistic row counts.
    """
    engine_name = engine if isinstance(engine, (str, type(None))) else engine.name
    table = ResultTable(
        name="scaling_law",
        params={
            **grid_params(scaling_points, grid),
            "engine": engine_name,
            "bootstrap": bootstrap,
            "budgets": list(DEFAULT_BUDGETS),
        },
    )
    for point in scaling_points(**grid):
        k, n = point.k, point.n
        ts = point.run(engine, progress, f"scaling-law k={k} n={n}")
        for trial in range(ts.trials):
            table.append(
                k=k,
                n=n,
                trial=trial,
                interactions=int(ts.interactions[trial]),
                effective_interactions=int(ts.effective_interactions[trial]),
                converged=bool(ts.results[trial].converged),
            )
        if progress is not None:
            progress(
                f"scaling-law k={k} n={n}: mean={ts.mean_interactions:.0f}"
            )
    return table


def scaling_report(
    table: ResultTable,
    *,
    budgets: Sequence[float] | None = None,
) -> dict[int, dict]:
    """Per-k fit + budget crossings from a per-trial table.

    Works identically on memory- and columnar-backed tables (both
    expose ``rows``).  Each entry carries the bootstrap
    :class:`~repro.analysis.scaling.ScalingFit` and, per budget, the
    population size where the fitted mean crosses it (``None`` when it
    never does below the bisection ceiling).

    The log-power c is constrained to the discrete physical grid
    :data:`~repro.analysis.scaling.DEFAULT_LOG_EXPONENT_GRID` — over a
    sweep's narrow ``ln n`` span the free 3-parameter fit is collinear
    (b and c trade off wildly at nearly equal residual), and a
    degenerate b would poison the budget crossings.
    """
    params = table.params
    resamples = int(params.get("bootstrap", 200) or 200)
    seed = int(params.get("seed", DEFAULT_SEED) or DEFAULT_SEED)
    if budgets is None:
        budgets = [float(b) for b in params.get("budgets", DEFAULT_BUDGETS)]
    samples: dict[int, dict[float, list[float]]] = {}
    for row in table.rows:
        k, n = int(row["k"]), float(row["n"])
        samples.setdefault(k, {}).setdefault(n, []).append(
            float(row["interactions"])
        )
    report: dict[int, dict] = {}
    for k in sorted(samples):
        if len(samples[k]) < 3:
            continue
        fit = bootstrap_scaling_fit(
            samples[k],
            resamples=resamples,
            seed=point_seed(seed, "scaling-law-bootstrap", k),
            log_exponent_grid=DEFAULT_LOG_EXPONENT_GRID,
        )
        report[k] = {
            "fit": fit,
            "crossings": {
                budget: budget_crossing(fit, budget) for budget in budgets
            },
        }
    return report


def _format_crossing(n: float | None) -> str:
    return "n/a" if n is None else f"n~{n:.3g}"


def render_scaling_law(table: ResultTable) -> str:
    """Terminal figure: mean curves, fitted laws with CIs, crossings."""
    means: dict[int, tuple[list[float], list[float]]] = {}
    acc: dict[tuple[int, float], list[float]] = {}
    for row in table.rows:
        acc.setdefault((int(row["k"]), float(row["n"])), []).append(
            float(row["interactions"])
        )
    for (k, n), values in sorted(acc.items()):
        xs, ys = means.setdefault(k, ([], []))
        xs.append(n)
        ys.append(sum(values) / len(values))
    plot = line_plot(
        {f"k={k}": series for k, series in sorted(means.items())},
        title="Scaling law: interactions vs n (n mod k = 0)",
        xlabel="n (population size)",
        ylabel="mean interactions",
    )
    report = scaling_report(table)
    lines = [plot, "", "fitted laws (y = a * n^b * ln(n)^c, bootstrap 95% CIs):"]
    for k, entry in sorted(report.items()):
        fit: ScalingFit = entry["fit"]
        lines.append(f"  k={k}: {fit.describe()}")
        crossings = "  ".join(
            f"{budget:.0e}:{_format_crossing(n)}"
            for budget, n in sorted(entry["crossings"].items())
        )
        lines.append(f"        budget crossings: {crossings}")
    if not report:
        lines.append("  (need >= 3 population sizes per k to fit)")
    return "\n".join(lines)
