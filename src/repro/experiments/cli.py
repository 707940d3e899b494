"""Command-line entry point: ``repro-experiments``.

Regenerates every figure and table of the paper's evaluation::

    repro-experiments fig3              # full-scale Figure 3 sweep
    repro-experiments fig6 --quick      # smoke-scale Figure 6
    repro-experiments all --quick --out results/
    repro-experiments campaign run --quick   # resumable cached sweeps
    repro-experiments fig3 --quick --trace trace.jsonl --metrics
    repro-experiments obs summarize trace.jsonl   # render a trace
    repro-experiments conform diff              # cross-engine lockstep diff
    repro-experiments fig3 --quick --conform    # invariant-check every trial

Full-scale runs use the paper's parameters (100 trials, n up to 960,
k up to 10) and take minutes; ``--quick`` runs the same code on
reduced grids in seconds.  Outputs: a terminal rendering, plus
``<name>.csv`` / ``<name>.json`` / ``<name>.txt`` when ``--out`` is
given.

Sweeps are **incremental**: with ``--out`` (or an explicit ``--cache``
path) every ``run_trials`` point is memoized in a campaign database,
so a re-run — after an interruption, or after ``campaign run``
computed the same grid — only simulates the missing points.  Pass
``--no-cache`` to force recomputation.  The ``campaign`` subcommand
(submit/run/status/gc/serve) manages long sweeps as durable job
queues; see ``docs/campaign.md``.

Observability: ``--trace PATH`` appends one JSONL record per trial set
and per trial (plus a provenance header) while the sweep runs, and
``--metrics`` prints the in-process telemetry snapshot at the end.
The ``obs`` subcommand (summarize/validate) inspects trace files; see
``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable

from ..io.results import ResultTable
from . import (
    distribution,
    lowerbound,
    report,
    engine_ablation,
    exact_validation,
    fig3_vary_n,
    fig4_grouping,
    fig5_scaling_n,
    fig6_scaling_k,
    graph_density,
    scaling_law,
    state_table,
    trajectory,
    uniformity_gap,
)
from .common import DEFAULT_SEED, ProgressPrinter, write_outputs

__all__ = ["main", "EXPERIMENTS", "describe_protocol"]

#: name -> (run function, render function, quick params, description)
EXPERIMENTS: dict[str, tuple[Callable[..., ResultTable], Callable, dict, str]] = {
    "fig3": (
        fig3_vary_n.run_fig3,
        fig3_vary_n.render_fig3,
        fig3_vary_n.QUICK_PARAMS,
        "interactions vs n for k in {4,6,8} (sawtooth in n mod k)",
    ),
    "fig4": (
        fig4_grouping.run_fig4,
        fig4_grouping.render_fig4,
        fig4_grouping.QUICK_PARAMS,
        "per-grouping decomposition NI'_i (stacked)",
    ),
    "fig5": (
        fig5_scaling_n.run_fig5,
        fig5_scaling_n.render_fig5,
        fig5_scaling_n.QUICK_PARAMS,
        "interactions vs n = 120*n' for k in {3,4,5,6}",
    ),
    "fig6": (
        fig6_scaling_k.run_fig6,
        fig6_scaling_k.render_fig6,
        fig6_scaling_k.QUICK_PARAMS,
        "interactions vs k at n = 960 (log scale, exponential in k)",
    ),
    "state-table": (
        state_table.run_state_table,
        state_table.render_state_table,
        state_table.QUICK_PARAMS,
        "state-complexity comparison (3k-2 vs k(k+3)/2 vs lower bound)",
    ),
    "uniformity-gap": (
        uniformity_gap.run_uniformity_gap,
        uniformity_gap.render_uniformity_gap,
        uniformity_gap.QUICK_PARAMS,
        "partition quality: Algorithm 1 vs approximate baseline",
    ),
    "engine-ablation": (
        engine_ablation.run_engine_ablation,
        engine_ablation.render_engine_ablation,
        engine_ablation.QUICK_PARAMS,
        "agent vs batch vs count engine performance",
    ),
    "exact-validation": (
        exact_validation.run_exact_validation,
        exact_validation.render_exact_validation,
        exact_validation.QUICK_PARAMS,
        "closed-form expected interactions vs simulation (small n, k)",
    ),
    "trajectory": (
        trajectory.run_trajectory,
        trajectory.render_trajectory,
        trajectory.QUICK_PARAMS,
        "group-size trajectories along one execution (extension)",
    ),
    "distribution": (
        distribution.run_distribution,
        distribution.render_distribution,
        distribution.QUICK_PARAMS,
        "stabilization-time distribution: quantiles and tail (extension)",
    ),
    "graph-density": (
        graph_density.run_graph_density,
        graph_density.render_graph_density,
        graph_density.QUICK_PARAMS,
        "graph bipartition: stabilization vs graph density (extension)",
    ),
    "scaling-law": (
        scaling_law.run_scaling_law,
        scaling_law.render_scaling_law,
        scaling_law.QUICK_PARAMS,
        "convergence scaling laws a*n^b*ln(n)^c with bootstrap CIs (extension)",
    ),
    "report": (
        report.run_report,
        report.render_report,
        report.QUICK_PARAMS,
        "consolidated claim-by-claim reproduction verdicts",
    ),
    "lowerbound": (
        lowerbound.run_lowerbound,
        lowerbound.render_lowerbound,
        lowerbound.QUICK_PARAMS,
        "mechanized 4-state lower bound for symmetric bipartition (extension)",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the evaluation of 'A Population Protocol for Uniform "
            "k-Partition under Global Fairness' (Yasumi et al.)"
        ),
    )
    choices = list(EXPERIMENTS) + ["all", "describe"]
    parser.add_argument(
        "experiment",
        choices=choices,
        help=(
            "which figure/table to regenerate ('all' runs everything; "
            "'describe' prints a protocol's states and rules; "
            "'campaign' manages resumable job queues; "
            "'obs' inspects JSONL traces; "
            "'conform' runs differential/invariant checks; "
            "'results' inspects/converts result tables — "
            "see 'repro-experiments campaign --help' / "
            "'repro-experiments obs --help' / "
            "'repro-experiments conform --help' / "
            "'repro-experiments results --help')"
        ),
    )
    parser.add_argument(
        "--protocol",
        default=None,
        help="for 'describe': a protocol name from the registry",
    )
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help=(
            "for 'describe': protocol parameter, e.g. --param k=4 or "
            "--param ratio=1,2,3 (repeatable)"
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced parameter grid (seconds instead of minutes)",
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=None,
        help="override the number of trials per sweep point",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"master seed (default {DEFAULT_SEED})",
    )
    parser.add_argument(
        "--engine",
        default=None,
        metavar="NAME",
        help=(
            "simulation engine for sweep experiments (e.g. 'count', "
            "'ensemble'); defaults to each experiment's own choice"
        ),
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="directory for CSV/JSON/TXT outputs (default: print only)",
    )
    parser.add_argument(
        "--no-progress",
        action="store_true",
        help="suppress progress lines on stderr",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="DB",
        help=(
            "campaign database memoizing every sweep point (default: "
            "<out>/campaign.db when --out is given, else no cache)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="force recomputation: neither read nor write the point cache",
    )
    import os

    parser.add_argument(
        "--trace",
        default=os.environ.get("REPRO_TRACE") or None,
        metavar="PATH",
        help=(
            "append a JSONL trace (provenance header + one record per "
            "trial set and per trial); inspect with 'obs summarize' "
            "(env: REPRO_TRACE)"
        ),
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        default=bool(os.environ.get("REPRO_METRICS")),
        help=(
            "collect run metrics and print the telemetry snapshot at "
            "the end (env: REPRO_METRICS=1)"
        ),
    )
    parser.add_argument(
        "--conform",
        action="store_true",
        default=bool(os.environ.get("REPRO_CONFORM")),
        help=(
            "debug: check every trial's final configuration against the "
            "protocol's invariant pack and abort on a violation "
            "(env: REPRO_CONFORM=1; see docs/conformance.md)"
        ),
    )
    return parser


def run_experiment(
    name: str,
    *,
    quick: bool = False,
    trials: int | None = None,
    seed: int = DEFAULT_SEED,
    engine: str | None = None,
    out: str | None = None,
    progress_enabled: bool = True,
) -> ResultTable:
    """Run one experiment by name; returns (and optionally writes) the table."""
    run, render, quick_params, _ = EXPERIMENTS[name]
    params: dict = dict(quick_params) if quick else {}
    if trials is not None and _accepts(run, "trials"):
        params["trials"] = trials
    if _accepts(run, "seed"):
        params["seed"] = seed
    if engine is not None and _accepts(run, "engine"):
        params["engine"] = engine
    progress = ProgressPrinter(enabled=progress_enabled)
    if _accepts(run, "progress"):
        params["progress"] = progress
    table = run(**params)
    write_outputs(table, out, render=render)
    return table


def _accepts(fn: Callable, name: str) -> bool:
    """Whether ``fn`` takes keyword ``name``.

    A figure's ``run_<name>(**grid)`` takes every keyword of its
    ``<name>_points`` grid, ``trials`` and ``seed`` among them.
    """
    import inspect

    params = inspect.signature(fn).parameters
    return name in params or any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    )


def describe_protocol(name: str, params: list[str]) -> str:
    """Render a registry protocol's structure (the 'describe' command)."""
    from ..protocols.registry import build_protocol, parse_param

    kwargs = dict(parse_param(p) for p in params)
    return build_protocol(name, **kwargs).describe()


def _resolve_cache(args: "argparse.Namespace"):
    """The trial cache implied by ``--cache`` / ``--out`` / ``--no-cache``.

    Returns ``(cache, store)`` — both ``None`` when caching is off.
    """
    if args.no_cache:
        return None, None
    path = args.cache
    if path is None and args.out is not None:
        from pathlib import Path

        path = str(Path(args.out) / "campaign.db")
    if path is None:
        return None, None
    from ..campaign.store import CampaignStore

    store = CampaignStore(path)
    return store.trial_cache(), store


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "campaign":
        from ..campaign.cli import campaign_main

        return campaign_main(argv[1:])
    if argv and argv[0] == "obs":
        from ..obs.cli import obs_main

        return obs_main(argv[1:])
    if argv and argv[0] == "conform":
        from ..conform.cli import conform_main

        return conform_main(argv[1:])
    if argv and argv[0] == "session":
        from ..sessiond.cli import session_main

        return session_main(argv[1:])
    if argv and argv[0] == "results":
        from ..io.results_cli import results_main

        return results_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.experiment == "describe":
        if not args.protocol:
            raise SystemExit("describe requires --protocol NAME")
        print(describe_protocol(args.protocol, args.param))
        return 0
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    cache, store = _resolve_cache(args)
    from contextlib import ExitStack

    from ..engine.runner import use_trial_cache

    telemetry = None
    conformance = None
    try:
        with ExitStack() as stack:
            stack.enter_context(use_trial_cache(cache))
            if args.conform:
                from ..conform.runtime import use_conformance

                conformance = stack.enter_context(use_conformance(strict=True))
            if args.metrics:
                from ..obs import Telemetry, use_telemetry

                telemetry = Telemetry()
                stack.enter_context(use_telemetry(telemetry))
            if args.trace is not None:
                from ..obs import TraceWriter, use_trace_writer

                writer = stack.enter_context(
                    TraceWriter(args.trace, meta={"argv": list(argv)})
                )
                stack.enter_context(use_trace_writer(writer))
            for name in names:
                _, render, _, description = EXPERIMENTS[name]
                print(f"== {name}: {description} ==")
                table = run_experiment(
                    name,
                    quick=args.quick,
                    trials=args.trials,
                    seed=args.seed,
                    engine=args.engine,
                    out=args.out,
                    progress_enabled=not args.no_progress,
                )
                print(render(table))
                print()
        if telemetry is not None:
            from ..obs.summary import render_metrics

            print(render_metrics(telemetry.snapshot()))
        if args.trace is not None:
            print(f"[trace] wrote {args.trace}")
        if conformance is not None:
            print(
                f"[conform] {conformance.results_checked} final "
                "configuration(s) checked, no violations"
            )
        if cache is not None and (cache.hits or cache.misses):
            total = cache.hits + cache.misses
            print(
                f"[point cache] {cache.hits}/{total} hits "
                f"({100.0 * cache.hits / total:.0f}%), "
                f"{cache.misses} point(s) simulated"
            )
    finally:
        if store is not None:
            store.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
