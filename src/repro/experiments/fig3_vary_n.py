"""Figure 3 — interactions to stability vs population size n.

Paper setting: for k in {4, 6, 8}, sweep n and plot the average (over
100 executions under the uniform scheduler) of the total number of
interactions until the stable configuration is reached.  The paper
highlights a *sawtooth*: the count generally grows with n, but dips
right after each multiple of k — ``n mod k`` matters, because for
``n = c*k + k`` or ``c*k + (k+1)`` the final grouping must be completed
with almost no spare free agents, which dominates the total.

This module reproduces the sweep.  The companion analysis
:func:`sawtooth_score` quantifies the paper's qualitative claim:
within each window ``[c*k + 2, (c+1)*k + 1]`` the mean interaction
count should peak near the top of the window and drop at the next
window's start.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..engine.base import Engine
from ..io.results import ResultTable
from .ascii_plot import line_plot
from .common import DEFAULT_SEED, GridPoint, grid_params, point_seed

__all__ = ["run_fig3", "render_fig3", "sawtooth_drops", "fig3_points", "QUICK_PARAMS"]

#: Reduced parameters used by CI, benchmarks, and ``--quick``.
QUICK_PARAMS: dict = {
    "ks": (4,),
    "n_values": tuple(range(8, 41, 4)),
    "trials": 8,
}


def fig3_points(
    *,
    ks: Sequence[int] = (4, 6, 8),
    n_values: Sequence[int] | None = None,
    n_max: int = 120,
    trials: int = 100,
    seed: int = DEFAULT_SEED,
) -> list[GridPoint]:
    """The Figure 3 grid: one point per (k, n).

    ``n_values=None`` uses every n from ``k + 2`` to ``n_max`` (step 1,
    per-k), which is what exposes the mod-k sawtooth.
    """
    return [
        GridPoint(k, n, trials, point_seed(seed, "fig3", k, n))
        for k in ks
        for n in (n_values if n_values is not None else range(k + 2, n_max + 1))
        if n >= 3
    ]


def run_fig3(
    *, engine: Engine | str | None = None, progress=None, **grid
) -> ResultTable:
    """Run the :func:`fig3_points` grid and record interaction statistics.

    ``grid`` takes the keywords of :func:`fig3_points`.
    """
    table = ResultTable(name="fig3_vary_n", params=grid_params(fig3_points, grid))
    for point in fig3_points(**grid):
        k, n = point.k, point.n
        ts = point.run(engine, progress, f"fig3 k={k} n={n}")
        table.append(
            k=k,
            n=n,
            n_mod_k=n % k,
            trials=ts.trials,
            mean_interactions=ts.mean_interactions,
            std_interactions=ts.std_interactions,
            sem_interactions=ts.sem_interactions,
            min_interactions=int(ts.interactions.min()),
            max_interactions=int(ts.interactions.max()),
            mean_effective=float(ts.effective_interactions.mean()),
        )
        if progress is not None:
            progress(f"fig3 k={k} n={n}: mean={ts.mean_interactions:.0f}")
    return table


def render_fig3(table: ResultTable) -> str:
    """Terminal rendering: one marker series per k."""
    series = {}
    for k in sorted({row["k"] for row in table.rows}):
        sub = table.where(k=k)
        series[f"k={k}"] = (sub.column("n"), sub.column("mean_interactions"))
    return line_plot(
        series,
        title="Figure 3: interactions to stability vs population size n",
        xlabel="n (population size)",
        ylabel="mean interactions",
    )


def sawtooth_drops(table: ResultTable, k: int) -> list[tuple[int, float, float]]:
    """Locate the mod-k dips: every ``n`` where the mean DROPS at ``n+1``.

    The paper observes that "the number of interactions sometimes
    decreases when n increases" and that "such a phenomenon is repeated
    with a period of a length of k".  Returns
    ``(n, mean_at_n, mean_at_n_plus_1)`` for each drop.

    Reproduction note: in our runs the peak of each window sits at
    ``n = c*k + 2`` — with exactly two leftover free agents, the
    remainder phase requires those two *specific* agents to meet
    (probability 1/C(n,2) per interaction, so ~n^2 interactions),
    which dominates the total; the drop lands at ``n = c*k + 3``.
    The periodicity (drops recurring every k) is the paper's claim;
    :func:`sawtooth_period` checks it.
    """
    sub = table.where(k=k)
    by_n = {int(row["n"]): float(row["mean_interactions"]) for row in sub.rows}
    out = []
    for n, mean in sorted(by_n.items()):
        if (n + 1) in by_n and by_n[n + 1] < mean:
            out.append((n, mean, by_n[n + 1]))
    return out


def sawtooth_period(table: ResultTable, k: int) -> int | None:
    """Most common residue ``n mod k`` among the drops (None if no drop).

    A clean sawtooth has all drops at one residue class, i.e. period k.
    """
    drops = sawtooth_drops(table, k)
    if not drops:
        return None
    residues = [n % k for n, _, _ in drops]
    return max(set(residues), key=residues.count)
