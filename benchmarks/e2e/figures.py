"""The two figure workloads, run inside the benchmark process.

``fig3-campaign``
    The default path of every figure and campaign job: the Figure 3
    grid at k=4, n=6..64 (100 trials per point, engine ``count``)
    submitted to a fresh campaign store, drained by ``run_campaign``
    (one worker) into a columnar shard sink, then queried with
    ``group_reduce`` — ``campaign run --columnar`` followed by
    ``results query``.  One *pass* is an interleaved quarter of the grid
    (every fourth n, so each pass spans the whole n range); passes
    rotate through the quarters.

``kernel-sweep``
    ``run_trials`` on ``count-jit`` over the Figure 6 grid (n=960,
    k in 3..8, 100 trials) and a scaling-law slice (k in {2, 4, 8},
    n in {500, 1000}, 20 trials): no store and no HTTP, and the
    null-skip ratio and effective step count vary with k and n.  One
    pass is the whole sweep with fresh seeds.

Both are batch work, so an operation is one trial: throughput is trials
per second of measured time (submit, drain, sink and query included),
and latency is the time the runner records for each trial.  Both run
whole passes until ``seconds`` of measured time have passed and enough
trials exist for a median with ten samples beyond it.
"""

from __future__ import annotations

import random
import time
from pathlib import Path

from harness import Outcome, dir_bytes, self_peak_rss_mb

FIG3_K = 4
FIG3_N_MAX = 64
FIG3_QUARTERS = 4
FIG3_QUERY = dict(
    by=["k", "n"], values=["interactions"], reducers=("count", "mean"),
    quantiles=(0.5,),
)
#: Jobs whose records are re-derived with a plain ``run_trials`` call.
FIG3_ORACLE_JOBS = 5

KERNEL_ENGINE = "count-jit"
#: count-jit must reproduce this engine bit for bit.
KERNEL_REFERENCE = "count"
KERNEL_FIG6 = [(k, 960, 100, "fig6") for k in (3, 4, 5, 6, 8)]
KERNEL_SCALING = [
    (k, n, 20, "scaling-law") for k in (2, 4, 8) for n in (500, 1_000)
]
#: The two cheapest points, re-run on the reference engine at 10 trials.
KERNEL_ORACLE_POINTS = [(2, 500), (4, 500)]
KERNEL_ORACLE_TRIALS = 10


def same_trials(a: dict, b: dict, *, ignore=("elapsed",)) -> bool:
    """Whether two ``TrialSet.to_record`` payloads agree trial by trial."""
    if a is None or b is None or len(a["results"]) != len(b["results"]):
        return False

    def strip(r: dict) -> dict:
        return {k: v for k, v in r.items() if k not in ignore}

    return all(
        strip(x) == strip(y) for x, y in zip(a["results"], b["results"])
    ) and (a["protocol"], a["n"]) == (b["protocol"], b["n"])


# ----------------------------------------------------------------------
# fig3-campaign
# ----------------------------------------------------------------------
def fig3_pass_specs(seed: int, index: int) -> list:
    """Specs of pass ``index``: one interleaved quarter of the k=4 grid.

    Every fourth pass moves to fresh point seeds, so no pass is ever a
    cache hit of an earlier one.
    """
    from repro.campaign.grids import experiment_specs

    specs = [
        s for s in experiment_specs("fig3", seed=seed + index // FIG3_QUARTERS)
        if s.params["k"] == FIG3_K and s.n <= FIG3_N_MAX
    ]
    return specs[index % FIG3_QUARTERS::FIG3_QUARTERS]


def run_fig3(seed: int, seconds: float, work: Path, *, min_ops: int) -> Outcome:
    from repro.campaign import executor
    from repro.campaign.store import CampaignStore
    from repro.engine import runner
    from repro.io import columnar

    work.mkdir(parents=True, exist_ok=True)
    cols = work / "trials"
    jobs: list = []
    measured = 0.0
    query = None
    store = CampaignStore(work / "campaign.db")
    try:
        t_begin = time.perf_counter()
        with columnar.ShardWriter(cols, name="campaign_trials") as sink:
            index = 0
            while measured < seconds or sum(s.trials for s in jobs) < min_ops:
                specs = fig3_pass_specs(seed, index)
                index += 1
                t0 = time.perf_counter()
                store.submit_many(specs)
                executor.run_campaign(store, sink=sink)
                query = columnar.group_reduce(columnar.ColumnStore(cols), **FIG3_QUERY)
                measured += time.perf_counter() - t0
                jobs.extend(specs)
        t_end = time.perf_counter()
        records = {spec.digest: store.result_record(spec.digest) for spec in jobs}
    finally:
        store.close()
    trials = [r for record in records.values() if record for r in record["results"]]
    out = Outcome(
        ops=len(trials), wall_s=measured,
        latencies_ms=[r["elapsed"] * 1000.0 for r in trials],
        peak_rss_mb=self_peak_rss_mb(), window=(t_begin, t_end),
    )
    for spec in jobs:
        record = records[spec.digest]
        out.count(
            record is not None and all(r["converged"] for r in record["results"]),
            f"job {spec.label()} not done or not converged",
        )

    # Oracle: seeded jobs re-run through plain run_trials, and the
    # sharded query against the in-memory reference over the store's
    # own records.
    for spec in random.Random(seed).sample(jobs, FIG3_ORACLE_JOBS):
        expected = runner.run_trials(
            spec.build_protocol(), spec.n, trials=spec.trials,
            engine=spec.engine, seed=spec.seed,
        ).to_record()
        out.count(same_trials(expected, records[spec.digest]),
                  f"job {spec.label()} differs from run_trials")
    rows = [
        row for spec in jobs if records[spec.digest]
        for row in executor.trial_sink_rows(spec, {"record": records[spec.digest]})
    ]
    out.count(columnar.group_reduce_rows(rows, **FIG3_QUERY) == query,
              "sharded query differs from group_reduce_rows")
    out.info = {
        "jobs_per_s": len(jobs) / measured,
        "disk_mb": (dir_bytes(cols) + sum(
            p.stat().st_size for p in work.glob("campaign.db*")
        )) / 1e6,
        "columnar_bytes": columnar.ColumnStore(cols).size_bytes(),
    }
    return out


# ----------------------------------------------------------------------
# kernel-sweep
# ----------------------------------------------------------------------
def kernel_points(seed: int, index: int) -> list[tuple[int, int, int, int]]:
    """``(k, n, trials, point seed)`` of every point of pass ``index``."""
    from repro.experiments.common import point_seed

    return [
        (k, n, trials, point_seed(seed + index, tag, k, n))
        for k, n, trials, tag in KERNEL_FIG6 + KERNEL_SCALING
    ]


def run_kernel_sweep(seed: int, seconds: float, work: Path, *, min_ops: int) -> Outcome:
    from repro.core.errors import SimulationError
    from repro.engine import runner
    from repro.protocols.registry import build_protocol

    latencies: list[float] = []
    failures: list[str] = []
    attempted = points_done = 0
    measured = 0.0
    t_begin = time.perf_counter()
    index = 0
    while measured < seconds or len(latencies) < min_ops:
        points = kernel_points(seed, index)
        index += 1
        for k, n, count, point_seed in points:
            t0 = time.perf_counter()
            attempted += 1
            try:
                ts = runner.run_trials(
                    build_protocol("uniform-k-partition", k=k), n,
                    trials=count, engine=KERNEL_ENGINE, seed=point_seed,
                )
            except SimulationError as exc:
                failures.append(f"k={k} n={n}: {exc}")
                continue
            finally:
                measured += time.perf_counter() - t0
            latencies.extend(r.elapsed * 1000.0 for r in ts.results)
            points_done += 1
    t_end = time.perf_counter()
    out = Outcome(
        ops=len(latencies), wall_s=measured, latencies_ms=latencies,
        peak_rss_mb=self_peak_rss_mb(),
        attempted=attempted, failures=failures,
        window=(t_begin, t_end),
    )
    # Oracle: the compiled tier is bit-identical to the Python tier.
    for k, n in KERNEL_ORACLE_POINTS:
        protocol = build_protocol("uniform-k-partition", k=k)
        runs = [
            runner.run_trials(
                protocol, n, trials=KERNEL_ORACLE_TRIALS, engine=engine, seed=seed,
            ).to_record()
            for engine in (KERNEL_REFERENCE, KERNEL_ENGINE)
        ]
        out.count(same_trials(*runs, ignore=("elapsed", "engine")),
                  f"{KERNEL_ENGINE} differs from {KERNEL_REFERENCE} at k={k} n={n}")
    out.info = {"points_per_s": points_done / measured, "passes": index}
    return out


# ----------------------------------------------------------------------
# Workload-independent engine probes of every traced run
# ----------------------------------------------------------------------
def engine_ablation(seed: int) -> dict[str, float]:
    """Milliseconds per trial of every registry engine at k=3, n=300."""
    from repro.engine import runner
    from repro.protocols.registry import build_protocol
    from tracing import ABLATION_ENGINES

    protocol = build_protocol("uniform-k-partition", k=3)
    out = {}
    for engine, scheduler in ABLATION_ENGINES.items():
        t0 = time.perf_counter()
        runner.run_trials(
            protocol, 300, trials=20, engine=engine, seed=seed, scheduler=scheduler
        )
        out[f"engine.ablation.{engine}.trial_ms"] = (time.perf_counter() - t0) * 50.0
    return out


def two_worker_speedups(seed: int) -> dict[str, float]:
    """Wall-time ratio of one worker to two, for both pool paths."""
    from repro.engine import runner
    from repro.engine.parallel import ParallelEnsembleEngine
    from repro.protocols.registry import build_protocol

    protocol = build_protocol("uniform-k-partition", k=4)

    def timed(**kwargs) -> float:
        t0 = time.perf_counter()
        runner.run_trials(protocol, 300, seed=seed, **kwargs)
        return time.perf_counter() - t0

    pool = [timed(trials=40, engine="count", workers=w) for w in (1, 2)]
    sharded = [
        timed(trials=128, engine=ParallelEnsembleEngine(shard_size=64, workers=w))
        for w in (1, 2)
    ]
    return {
        "engine.runner.pool_speedup_2w": pool[0] / pool[1],
        "engine.parallel.speedup_2w": sharded[0] / sharded[1],
    }
