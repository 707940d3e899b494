"""State-complexity table (Table S in DESIGN.md).

The paper's evaluation section has no numeric tables, but its central
claims are about space: Algorithm 1 uses ``3k - 2`` states, the
approximate baseline [14] uses ``k(k+3)/2``, any protocol needs at
least ``k``, and repeated bipartition covers only powers of two.  This
experiment materializes those claims as a table and — crucially —
verifies each formula against the number of states the *implemented*
protocol actually constructs.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..analysis.theory import state_complexity_row
from ..io.results import ResultTable
from ..protocols.approx_partition import approximate_k_partition
from ..protocols.kpartition import uniform_k_partition
from ..protocols.repeated_bipartition import repeated_bipartition

__all__ = ["run_state_table", "render_state_table", "QUICK_PARAMS"]

QUICK_PARAMS: dict = {"ks": (2, 3, 4, 8)}


def run_state_table(
    *,
    ks: Sequence[int] = tuple(range(2, 17)),
    progress=None,
) -> ResultTable:
    """Build the comparison table, verifying formulas against code."""
    table = ResultTable(name="state_table", params={"ks": list(ks)})
    for k in ks:
        row = state_complexity_row(k)
        proposed_actual = uniform_k_partition(k).num_states
        approx_actual = approximate_k_partition(k).num_states
        if row.repeated_bipartition is not None:
            h = k.bit_length() - 1
            repeated_actual = repeated_bipartition(h).num_states
        else:
            repeated_actual = None
        verified = (
            proposed_actual == row.proposed
            and approx_actual == row.approx_baseline
            and (repeated_actual is None or repeated_actual == row.repeated_bipartition)
        )
        table.append(
            k=k,
            lower_bound=row.lower_bound,
            proposed_3k_minus_2=row.proposed,
            proposed_actual=proposed_actual,
            approx_k_k3_over_2=row.approx_baseline,
            approx_actual=approx_actual,
            repeated_bipartition=row.repeated_bipartition,
            ratio_to_lower_bound=round(row.proposed_over_lower, 3),
            formulas_verified=verified,
        )
        if progress is not None:
            progress(f"state-table k={k}: verified={verified}")
    return table


def render_state_table(table: ResultTable) -> str:
    header = (
        "State complexity: proposed protocol vs baselines\n"
        "(proposed_actual / approx_actual are counted from the implementations)\n"
    )
    return header + table.render(floatfmt=".3f")
