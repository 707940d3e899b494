"""Figure 4 — per-grouping interaction decomposition NI'_i.

The paper defines ``NI_i`` as the number of interactions until the
i-th set of agents in states ``g_1..g_k`` is complete (the i-th agent
enters ``g_k``; that set can never be torn down afterwards) and stacks
``NI'_i = NI_i - NI_{i-1}`` per n for k in {4, 6, 8}.  Two qualitative
claims:

1. ``NI'_1 < NI'_2 < ...`` — later groupings draw from a shrinking
   pool of free agents;
2. for ``n = c*k + k`` and ``c*k + (k+1)`` the final grouping accounts
   for **more than half** of all interactions.

The engines record the milestones via ``track_state=g_k``;
:func:`repro.analysis.grouping.decompose_groupings` aggregates them.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..analysis.grouping import GroupingDecomposition, decompose_groupings
from ..engine.base import Engine
from ..io.results import ResultTable
from .ascii_plot import stacked_bars
from .common import DEFAULT_SEED, GridPoint, grid_params, point_seed

__all__ = ["run_fig4", "render_fig4", "fig4_points", "QUICK_PARAMS"]

QUICK_PARAMS: dict = {
    "ks": (4,),
    "n_values": tuple(range(8, 26, 2)),
    "trials": 8,
}


def fig4_points(
    *,
    ks: Sequence[int] = (4, 6, 8),
    n_values: Sequence[int] | None = None,
    n_max: int = 60,
    trials: int = 100,
    seed: int = DEFAULT_SEED,
) -> list[GridPoint]:
    """The Figure 4 grid: one point per (k, n), tracking ``g_k``.

    ``n_values=None`` uses every n from ``k + 2`` to ``n_max``.
    """
    return [
        GridPoint(k, n, trials, point_seed(seed, "fig4", k, n), track_state=f"g{k}")
        for k in ks
        for n in (n_values if n_values is not None else range(k + 2, n_max + 1))
        if n >= 3
    ]


def run_fig4(
    *, engine: Engine | str | None = None, progress=None, **grid
) -> ResultTable:
    """Run the :func:`fig4_points` grid, decomposing interactions by grouping.

    ``grid`` takes the keywords of :func:`fig4_points`.  Long-format
    table: one row per (k, n, grouping index), where index ``i`` in
    ``1..floor(n/k)`` is the i-th grouping and index 0 labels the
    remainder phase (the n mod k leftover agents stabilizing after the
    final grouping).
    """
    table = ResultTable(name="fig4_grouping", params=grid_params(fig4_points, grid))
    for point in fig4_points(**grid):
        k, n = point.k, point.n
        ts = point.run(engine, progress, f"fig4 k={k} n={n}")
        decomp = decompose_groupings(ts, k)
        _append_decomposition(table, k, decomp)
        if progress is not None:
            progress(
                f"fig4 k={k} n={n}: {decomp.num_groupings} groupings, "
                f"last share={decomp.last_grouping_share:.2f}"
            )
    return table


def _append_decomposition(table: ResultTable, k: int, d: GroupingDecomposition) -> None:
    for i, inc in enumerate(d.mean_increments, start=1):
        table.append(
            k=k,
            n=d.n,
            grouping=i,
            mean_increment=float(inc),
            mean_total=d.mean_total,
            share=float(inc / d.mean_total) if d.mean_total else 0.0,
        )
    table.append(
        k=k,
        n=d.n,
        grouping=0,  # remainder phase
        mean_increment=float(d.mean_tail),
        mean_total=d.mean_total,
        share=float(d.mean_tail / d.mean_total) if d.mean_total else 0.0,
    )


def render_fig4(table: ResultTable, *, k: int | None = None) -> str:
    """Stacked-bar rendering (one bar per n) for one k."""
    ks = sorted({row["k"] for row in table.rows})
    if k is None:
        return "\n\n".join(render_fig4(table, k=kk) for kk in ks)
    sub = table.where(k=k)
    ns = sorted({row["n"] for row in sub.rows})
    max_groupings = max(
        (int(row["grouping"]) for row in sub.rows), default=0
    )
    rows = []
    for n in ns:
        by_grouping = {
            int(r["grouping"]): float(r["mean_increment"]) for r in sub.where(n=n).rows
        }
        values = [by_grouping.get(i, 0.0) for i in range(1, max_groupings + 1)]
        values.append(by_grouping.get(0, 0.0))  # remainder last
        rows.append((f"n={n}", values))
    labels = [f"{i}th" for i in range(1, max_groupings + 1)] + ["rem"]
    return stacked_bars(
        rows,
        labels,
        title=f"Figure 4 (k={k}): interactions per grouping (stacked)",
        value_label="interactions",
    )


def last_grouping_shares(table: ResultTable, k: int) -> dict[int, float]:
    """``n -> share of the final grouping`` for the paper's >1/2 claim."""
    sub = table.where(k=k)
    out: dict[int, float] = {}
    for n in sorted({int(r["n"]) for r in sub.rows}):
        groupings = [r for r in sub.where(n=n).rows if int(r["grouping"]) > 0]
        if groupings:
            last = max(groupings, key=lambda r: int(r["grouping"]))
            out[n] = float(last["share"])
    return out
