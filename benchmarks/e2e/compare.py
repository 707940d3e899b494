"""Compare two sets of benchmark runs, one row per (workload, metric).

    python3 benchmarks/e2e/compare.py A B

``A`` (the baseline) and ``B`` (the change) are result files written by
``run.py --trace 0``, or directories of them.  For every workload
present in both and every end-to-end metric of BENCHMARK.json the row
shows each side's median and quartiles, B's change against A's median,
and a verdict:

``regressed``
    B's median is worse than A's by more than the metric's bound.
``unresolved``
    A's or B's quartile spread (as a share of its median) exceeds the
    bound, so a change of that size could not be told from noise —
    unless every B run reads better than every A run.
``ok``
    Neither of the above.

Runs whose provenance differs in CPU count or kernel backend are not
comparable; the script refuses them (exit 2).  It exits 1 when any row
regressed or is unresolved, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from harness import ROOT, spread

#: Provenance fields that must agree across every compared run.
SAME_MACHINE = ("nproc", "kernel_backend")


class NotComparable(Exception):
    """The two sets of runs come from different machines or builds."""


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = [json.loads(f.read_text()) for f in files]
    return [r for r in runs if r.get("trace") == 0]


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """The row verdict and B's relative change (positive = better)."""
    sign = 1.0 if better == "higher" else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    change = sign * (mb - ma) / ma
    if change < -bound:
        return "regressed", change
    if max(spread(a), spread(b)) > bound:
        if min(sign * x for x in b) > max(sign * x for x in a):
            return "ok", change
        return "unresolved", change
    return "ok", change


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(a_runs: list[dict], b_runs: list[dict], spec: dict) -> tuple[list[dict], int]:
    """Rows of the comparison and the exit status."""
    machines = {
        tuple(r["provenance"].get(k) for k in SAME_MACHINE) for r in a_runs + b_runs
    }
    if len(machines) > 1:
        raise NotComparable(
            f"refusing to compare runs from different machines: {SAME_MACHINE} "
            f"take the values {sorted(machines, key=str)}"
        )
    by_side: list[dict[str, list[dict]]] = []
    for runs in (a_runs, b_runs):
        grouped: dict[str, list[dict]] = defaultdict(list)
        for r in runs:
            grouped[r["workload"]].append(r)
        by_side.append(grouped)
    rows, status = [], 0
    for workload in sorted(set(by_side[0]) & set(by_side[1])):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in by_side[0][workload]]
            b = [r["metrics"][name]["value"] for r in by_side[1][workload]]
            result, change = verdict(a, b, metric["better"], metric["bound"])
            if result != "ok":
                status = 1
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "a": _quartiles(a), "b": _quartiles(b), "runs": (len(a), len(b)),
                "change": change, "bound": metric["bound"], "verdict": result,
            })
    return rows, status


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_runs, b_runs = (load(Path(p)) for p in argv)
    if not a_runs or not b_runs:
        print("error: no --trace 0 result files on one side", file=sys.stderr)
        return 2
    try:
        rows, status = compare(a_runs, b_runs, spec)
    except NotComparable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{'workload':15s} {'metric':18s} {'A q1/median/q3':>28s} "
          f"{'B q1/median/q3':>28s} {'runs':>6s} {'change':>8s} {'bound':>6s}  verdict")
    for row in rows:
        qa = "/".join(f"{v:.4g}" for v in row["a"])
        qb = "/".join(f"{v:.4g}" for v in row["b"])
        print(f"{row['workload']:15s} {row['metric']:18s} {qa:>28s} {qb:>28s} "
              f"{row['runs'][0]:>2d}/{row['runs'][1]:<3d} {row['change']:+8.1%} "
              f"{row['bound']:6.0%}  {row['verdict']}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
