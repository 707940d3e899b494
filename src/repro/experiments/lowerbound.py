"""Mechanized space lower bound (extension beyond the paper).

The paper's optimality claim chains through [25]: four states are
necessary for symmetric uniform bipartition with designated initial
states under global fairness.  This experiment re-establishes the
necessity direction by brute force: it enumerates *every* deterministic
symmetric rule table on 2 and 3 states with every surjective group map
(118,130 candidates in total), model-checks each on n = 3..6, and
reports the survivor count — zero, confirming that 4 states are needed.

The run also includes the positive control (the shipped 4-state
protocol passes the identical checker on every tested n) and, as a
by-product, the "near miss" census: how many 3-state candidates can
balance populations up to n = 5 before n = 6 kills them (eight).
"""

from __future__ import annotations

from collections.abc import Sequence

from ..analysis.search import search_lower_bound, solves_uniform_partition
from ..io.results import ResultTable

__all__ = ["run_lowerbound", "render_lowerbound", "QUICK_PARAMS"]

QUICK_PARAMS: dict = {"state_counts": (2,), "ks": (2,), "ns": (3, 4, 5, 6), "include_asymmetric": True}

#: The shipped 4-state bipartition protocol in the search encoding
#: (states: 0=initial, 1=initial', 2=g1, 3=g2; groups: g2 alone).
CONTROL_RULES = {
    (0, 0): (1, 1),
    (1, 1): (0, 0),
    (0, 1): (2, 3),
    (0, 2): (1, 2),
    (0, 3): (1, 3),
    (1, 2): (0, 2),
    (1, 3): (0, 3),
}
CONTROL_GROUPS = (0, 0, 0, 1)


def run_lowerbound(
    *,
    state_counts: Sequence[int] = (2, 3),
    ks: Sequence[int] = (2, 3),
    ns: Sequence[int] = (3, 4, 5, 6),
    include_asymmetric: bool = True,
    progress=None,
) -> ResultTable:
    """Exhaustive protocol search per (state count, k) pair.

    With ``include_asymmetric=True`` (default) each feasible pair is
    searched twice: symmetric protocols only, and the full class with
    symmetry-breaking same-state rules.  Pairs with fewer states than
    groups are skipped (no surjective group map exists).  Findings:

    * k = 2: zero symmetric survivors at 2-3 states, but asymmetric
      3-state survivors exist (``(initial, initial) -> (A, B)``) —
      the price of symmetry is one state;
    * k = 3: zero survivors at 3 states even asymmetrically, so
      uniform 3-partition needs >= 4 states — strictly above the
      trivial Omega(k) = 3 bound.
    """
    table = ResultTable(
        name="lowerbound",
        params={
            "state_counts": list(state_counts),
            "ks": list(ks),
            "ns": list(ns),
            "include_asymmetric": include_asymmetric,
        },
    )
    variants = [True] + ([False] if include_asymmetric else [])
    for s in state_counts:
        for k in ks:
            if s < k:
                continue  # no surjective group map
            for symmetric in variants:
                result = search_lower_bound(
                    s, k, ns=ns, symmetric=symmetric, progress=progress
                )
                table.append(
                    num_states=s,
                    k=k,
                    symmetric=symmetric,
                    ns=",".join(map(str, result.ns)),
                    candidates=result.candidates,
                    pruned=result.pruned,
                    survivors=len(result.survivors),
                    lower_bound_holds=result.lower_bound_holds,
                )
                if progress is not None:
                    progress(
                        f"lowerbound S={s} k={k} "
                        f"{'sym' if symmetric else 'asym'}: "
                        f"{result.candidates} candidates, "
                        f"{len(result.survivors)} survivors"
                    )
    # Positive control: the known 4-state protocol must pass every n.
    control_ok = all(
        solves_uniform_partition(CONTROL_RULES, CONTROL_GROUPS, n, 4) for n in ns
    )
    table.append(
        num_states=4,
        k=2,
        symmetric=True,
        ns=",".join(map(str, ns)),
        candidates=1,
        pruned=0,
        survivors=1 if control_ok else 0,
        lower_bound_holds=False,  # a survivor exists, as it must
    )
    return table


def render_lowerbound(table: ResultTable) -> str:
    header = (
        "Mechanized space lower bounds for uniform k-partition\n"
        "(designated initial states, global fairness).\n"
        "k=2 symmetric: zero survivors at 2-3 states + the surviving\n"
        "4-state control = machine-checked necessity of 4 states ([25],\n"
        "the bound behind the paper's optimality claim).  k=2 asymmetric:\n"
        "3 states suffice - the price of symmetry is exactly one state.\n"
        "k=3: zero survivors at 3 states even asymmetrically, so uniform\n"
        "3-partition needs >= 4 states - strictly above Omega(k) = 3.\n"
    )
    verdict_ok = all(
        (row["survivors"] == 0) == bool(row["lower_bound_holds"])
        for row in table.rows
    )
    four = [r for r in table.rows if r["num_states"] == 4 and r["k"] == 2]
    control = bool(four and four[0]["survivors"] == 1)
    return (
        header
        + table.render()
        + f"\n\npositive control (4-state protocol passes): {control}"
        + f"\ninternal consistency: {verdict_ok}"
    )
