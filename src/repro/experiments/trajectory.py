"""Convergence trajectories (extension beyond the paper's figures).

The paper reports only the total interaction count; this experiment
records *how* the partition forms: per-group sizes sampled along a
single execution.  The trajectories visualize the mechanism behind
Figure 4 — groups fill in lockstep (Lemma 1 forces #g_1 >= #g_2 >= ...
>= #g_k at all times), with long plateaus while a chain waits for free
agents and occasional dips when rule 8 tears a partial chain down.
"""

from __future__ import annotations

from ..engine.base import Engine
from ..engine.batch import BatchEngine
from ..engine.metrics import TimeSeriesRecorder
from ..io.results import ResultTable
from ..protocols.kpartition import uniform_k_partition
from .ascii_plot import line_plot
from .common import DEFAULT_SEED

__all__ = ["run_trajectory", "render_trajectory", "QUICK_PARAMS"]

QUICK_PARAMS: dict = {"k": 3, "n": 30, "samples": 40}


def run_trajectory(
    *,
    k: int = 4,
    n: int = 120,
    samples: int = 120,
    seed: int = DEFAULT_SEED,
    engine: Engine | None = None,
    progress=None,
) -> ResultTable:
    """Record ~``samples`` group-size snapshots along one execution.

    Long-format rows: (interactions, group, size).  Uses the batch
    engine so the callback sees exact interaction indices.
    """
    protocol = uniform_k_partition(k)
    if engine is None:
        engine = BatchEngine()
    # First pass to size the stride, then the recorded pass (same seed,
    # same execution, since the engine is deterministic per seed).
    probe = engine.run(protocol, n, seed=seed)
    stride = max(probe.effective_interactions // samples, 1)
    recorder = TimeSeriesRecorder(stride=stride)
    result = engine.run(protocol, n, seed=seed, on_effective=recorder)
    assert result.interactions == probe.interactions

    table = ResultTable(
        name="trajectory",
        params={"k": k, "n": n, "seed": seed, "stride": stride,
                "total_interactions": result.interactions},
    )
    # The recorder's prime/finalize hooks guarantee the first row is the
    # initial configuration and the last row the stable one, so the
    # table needs no manual endpoint patching.
    times = recorder.times
    for t, counts in zip(times, recorder.snapshots):
        row = protocol.group_sizes(counts)
        for g in range(k):
            table.append(
                interactions=int(t),
                group=g + 1,
                size=int(row[g]),
            )
    if progress is not None:
        progress(
            f"trajectory k={k} n={n}: {result.interactions} interactions, "
            f"{len(times)} samples"
        )
    return table


def render_trajectory(table: ResultTable) -> str:
    k = int(table.params.get("k", 0)) or max(int(r["group"]) for r in table.rows)
    series = {}
    for g in range(1, k + 1):
        sub = table.where(group=g)
        series[f"group {g}"] = (sub.column("interactions"), sub.column("size"))
    n = table.params.get("n", "?")
    plot = line_plot(
        series,
        title=f"Group sizes along one execution (k={k}, n={n})",
        xlabel="interactions",
        ylabel="group size",
    )
    # Lemma 1 in action: report how often the staircase ordering held.
    times = sorted({int(r["interactions"]) for r in table.rows})
    ordered = 0
    for t in times:
        sizes = [0] * k
        for r in table.rows:
            if int(r["interactions"]) == t:
                sizes[int(r["group"]) - 1] = int(r["size"])
        gk = sizes[-1]
        if all(s >= gk for s in sizes):
            ordered += 1
    return (
        f"{plot}\n\n"
        f"Lemma-1 staircase (#g_x >= #g_k) held at {ordered}/{len(times)} samples"
    )
