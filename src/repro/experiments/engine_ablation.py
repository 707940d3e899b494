"""Engine ablation: what the null-skipping jump chain buys.

DESIGN.md claims the count-based engine makes the paper's Figure 6
regime tractable because it pays only per-*effective* interaction.
This experiment measures it: run the same workloads on the agent,
batch, count, hybrid and ensemble engines and record wall-clock time, interactions simulated per second,
and the effective-interaction fraction.  It also cross-checks that the
engines agree on the physics (mean interaction counts within noise).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..engine.agent_based import AgentBasedEngine
from ..engine.batch import BatchEngine
from ..engine.count_based import CountBasedEngine
from ..engine.ensemble import EnsembleEngine
from ..engine.hybrid import HybridEngine
from ..engine.runner import run_trials
from ..io.results import ResultTable
from ..protocols.kpartition import uniform_k_partition
from .common import DEFAULT_SEED, point_seed

__all__ = ["run_engine_ablation", "render_engine_ablation", "QUICK_PARAMS"]

QUICK_PARAMS: dict = {"points": ((3, 30), (4, 40)), "trials": 4}


def run_engine_ablation(
    *,
    points: Sequence[tuple[int, int]] = ((4, 120), (6, 240), (8, 480), (6, 960)),
    trials: int = 10,
    seed: int = DEFAULT_SEED,
    progress=None,
) -> ResultTable:
    """Time all the engines on (k, n) workload points."""
    engines = [
        AgentBasedEngine(),
        BatchEngine(),
        CountBasedEngine(),
        HybridEngine(),
        EnsembleEngine(),
    ]
    table = ResultTable(
        name="engine_ablation",
        params={"points": [list(p) for p in points], "trials": trials, "seed": seed},
    )
    for k, n in points:
        protocol = uniform_k_partition(k)
        for engine in engines:
            ts = run_trials(
                protocol,
                n,
                trials=trials,
                engine=engine,
                # Same seed for every engine: batch/agent runs are then
                # identical executions, and count sees the same law.
                seed=point_seed(seed, "ablation", k, n),
            )
            wall = np.asarray([r.elapsed for r in ts.results])
            eff = ts.effective_interactions.astype(np.float64)
            total = ts.interactions.astype(np.float64)
            table.append(
                engine=engine.name,
                k=k,
                n=n,
                trials=ts.trials,
                mean_interactions=ts.mean_interactions,
                mean_effective=float(eff.mean()),
                effective_fraction=float((eff / total).mean()),
                mean_wall_seconds=float(wall.mean()),
                interactions_per_second=float((total / np.maximum(wall, 1e-9)).mean()),
            )
            if progress is not None:
                progress(
                    f"ablation k={k} n={n} {engine.name}: "
                    f"{wall.mean()*1e3:.1f} ms/run"
                )
    return table


def render_engine_ablation(table: ResultTable) -> str:
    header = (
        "Engine ablation: same workload on agent / batch / count engines.\n"
        "The count engine pays O(#rules) per EFFECTIVE interaction, the\n"
        "agent engines ~O(1) per interaction: batch wins at small n where\n"
        "most interactions are effective; count wins at large n where the\n"
        "effective fraction collapses (the Figure 5/6 regime).\n"
    )
    lines = [header + table.render(floatfmt=".4g")]
    # Per-point speedup summary (values < 1 mean batch was faster).
    for k, n in sorted({(row["k"], row["n"]) for row in table.rows}):
        sub = table.where(k=k, n=n)
        walls = {row["engine"]: float(row["mean_wall_seconds"]) for row in sub.rows}
        fracs = {row["engine"]: float(row["effective_fraction"]) for row in sub.rows}
        if "count" in walls and "batch" in walls and walls["count"] > 0:
            lines.append(
                f"k={k} n={n}: count vs batch = "
                f"{walls['batch'] / walls['count']:.1f}x "
                f"(effective fraction {fracs.get('count', float('nan')):.3f})"
            )
    return "\n".join(lines)
