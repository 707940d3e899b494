"""``repro-experiments campaign`` — CLI verbs over the job store.

Verbs::

    campaign submit --experiment fig3 --quick      # enqueue a grid
    campaign run    --quick                        # enqueue + drain (resumable)
    campaign status                                # queue counts
    campaign gc --older-than 30                    # prune failed/old rows
    campaign serve --port 8642                     # HTTP service daemon

``run`` is idempotent and interruption-safe: Ctrl-C checkpoints
in-flight jobs back to the queue, and a re-run only computes what is
missing — already-done digests are reported as cache hits.  Serial
drains additionally commit finished trials and mid-trial session
snapshots every ``--checkpoint-interactions`` interactions of work, so
a resumed job continues from inside the interrupted trial rather than
restarting it.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..core.errors import UnknownEngineError, UnknownProtocolError
from ..experiments.common import DEFAULT_SEED, ProgressPrinter
from .executor import run_campaign
from .grids import GRID_EXPERIMENTS, experiment_specs
from .service_v2 import AsyncCampaignService
from .store import CampaignStore

__all__ = ["build_campaign_parser", "campaign_main"]

#: Default database location, shared with the experiment harness's
#: incremental mode (``repro-experiments all --out results/``).
DEFAULT_DB = "results/campaign.db"


def build_campaign_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments campaign",
        description="Resumable, cache-backed experiment campaigns",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--db", default=DEFAULT_DB, metavar="PATH",
        help=f"job store database (default {DEFAULT_DB})",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_grid_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--experiment", default="all",
            choices=list(GRID_EXPERIMENTS) + ["all"],
            help="which figure grid to enqueue (default all)",
        )
        p.add_argument("--quick", action="store_true", help="smoke-scale grids")
        p.add_argument("--trials", type=int, default=None, help="override trials/point")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="experiment seed")
        p.add_argument("--engine", default="count", help="engine registry name")
        p.add_argument("--campaign", default=None, help="label grouping these jobs")

    p_submit = sub.add_parser(
        "submit", parents=[common], help="enqueue a figure grid (no execution)"
    )
    add_grid_args(p_submit)

    p_run = sub.add_parser(
        "run", parents=[common], help="enqueue (idempotent) and drain the queue"
    )
    add_grid_args(p_run)
    p_run.add_argument("--workers", type=int, default=1, help="process-pool width")
    p_run.add_argument(
        "--retries", type=int, default=1,
        help="extra attempts before a job is marked failed",
    )
    p_run.add_argument(
        "--max-jobs", type=int, default=None, help="stop after N completions"
    )
    p_run.add_argument(
        "--checkpoint-interactions", type=int, default=None, metavar="N",
        help=(
            "serial-drain checkpoint budget: commit finished trials and "
            "the mid-trial session snapshot every N scheduler "
            "interactions of work (default 1000000)"
        ),
    )
    p_run.add_argument(
        "--no-submit", action="store_true",
        help="drain only what is already queued (skip grid submission)",
    )
    p_run.add_argument(
        "--columnar", default=None, metavar="DIR",
        help=(
            "stream one row per trial into a columnar shard store at DIR "
            "(append-only, keyed by job digest — safe across re-runs; "
            "aggregate with 'repro-experiments results query')"
        ),
    )
    p_run.add_argument("--no-progress", action="store_true")
    p_run.add_argument(
        "--trace", default=None, metavar="PATH",
        help="append a JSONL trace of every trial set executed",
    )
    p_run.add_argument(
        "--metrics", action="store_true",
        help="print the telemetry snapshot after the drain",
    )
    p_run.add_argument(
        "--conform", action="store_true",
        help=(
            "debug: check every trial's final configuration against the "
            "protocol's invariant pack while draining (see docs/conformance.md)"
        ),
    )

    sub.add_parser(
        "status", parents=[common], help="print job counts and recent failures"
    )

    p_gc = sub.add_parser(
        "gc", parents=[common], help="delete failed jobs and prune old results"
    )
    p_gc.add_argument(
        "--keep-failed", action="store_true", help="do not delete failed jobs"
    )
    p_gc.add_argument(
        "--older-than", type=float, default=None, metavar="DAYS",
        help="also delete done jobs (and cache entries) finished more than DAYS ago",
    )
    p_gc.add_argument("--no-vacuum", action="store_true")

    p_serve = sub.add_parser(
        "serve", parents=[common], help="run the HTTP service daemon"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8642)
    p_serve.add_argument(
        "--workers", type=int, default=2,
        help=(
            "drain-pool width (0 = serve submit/status only; drain with "
            "'campaign run' elsewhere)"
        ),
    )
    p_serve.add_argument(
        "--queue-limit", type=int, default=256, metavar="N",
        help="submit-queue bound: saturated submissions get 429 (default 256)",
    )

    p_load = sub.add_parser(
        "load", parents=[common],
        help="drive a running service with the load harness",
    )
    p_load.add_argument(
        "--url", required=True, metavar="URL",
        help="service base URL, e.g. http://127.0.0.1:8642",
    )
    p_load.add_argument(
        "--mode", choices=("closed", "open"), default="closed",
        help="closed: N keep-alive clients; open: fixed request rate",
    )
    p_load.add_argument("--clients", type=int, default=100,
                        help="closed-loop concurrency (default 100)")
    p_load.add_argument("--rate", type=float, default=200.0,
                        help="open-loop requests/second (default 200)")
    p_load.add_argument("--duration", type=float, default=5.0,
                        help="seconds to run (default 5)")
    p_load.add_argument("--submissions", type=int, default=64,
                        help="distinct tiny job specs to submit (0 = status-only)")
    p_load.add_argument("--tenant", default="loadgen",
                        help="tenant namespace for submitted jobs")
    p_load.add_argument("--seed0", type=int, default=1,
                        help="first spec seed (distinct seeds → distinct jobs)")
    p_load.add_argument("--json", action="store_true",
                        help="print the full report as JSON")
    return parser


def _enqueue(
    store: CampaignStore, args: argparse.Namespace
) -> tuple[int, dict[str, int]] | None:
    """Submit the requested grid; returns ``(points, outcome)``.

    A grid naming an unknown engine or protocol is refused by the
    store: the error goes to stderr and the result is None.
    """
    specs = experiment_specs(
        args.experiment, quick=args.quick, trials=args.trials,
        seed=args.seed, engine=args.engine,
    )
    try:
        return len(specs), store.submit_many(specs, campaign=args.campaign)
    except (UnknownEngineError, UnknownProtocolError) as exc:
        print(f"campaign {args.verb}: {exc}", file=sys.stderr)
        return None


def _cmd_submit(store: CampaignStore, args: argparse.Namespace) -> int:
    enqueued = _enqueue(store, args)
    if enqueued is None:
        return 2
    _, outcome = enqueued
    print(
        f"submitted {outcome['created']} new job(s); "
        f"{outcome['existing']} already known "
        f"({outcome['done']} of those done)"
    )
    return 0


def _cmd_run(store: CampaignStore, args: argparse.Namespace) -> int:
    if not args.no_submit:
        enqueued = _enqueue(store, args)
        if enqueued is None:
            return 2
        total, outcome = enqueued
        hits = outcome["done"]
        pct = 100.0 * hits / total if total else 0.0
        print(
            f"grid {args.experiment}: {total} point(s), "
            f"{outcome['created']} new, {hits} cached ({pct:.0f}% cache hits)"
        )
    progress = ProgressPrinter(enabled=not args.no_progress)
    from contextlib import ExitStack

    telemetry = None
    conformance = None
    with ExitStack() as stack:
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
                TraceWriter(args.trace, meta={"campaign_db": str(store.path)})
            )
            stack.enter_context(use_trace_writer(writer))
        extra = {}
        if args.checkpoint_interactions is not None:
            extra["checkpoint_interactions"] = args.checkpoint_interactions
        sink = None
        if args.columnar is not None:
            from ..io.columnar import ShardWriter

            sink = stack.enter_context(
                ShardWriter(args.columnar, name="campaign_trials")
            )
        report = run_campaign(
            store,
            workers=args.workers,
            retries=args.retries,
            max_jobs=args.max_jobs,
            progress=progress if not args.no_progress else None,
            sink=sink,
            **extra,
        )
    if telemetry is not None:
        from ..obs.summary import render_metrics

        print(render_metrics(telemetry.snapshot()))
    if conformance is not None:
        print(
            f"[conform] {conformance.results_checked} final "
            "configuration(s) checked, no violations"
        )
    if args.columnar is not None:
        from ..io.columnar import ColumnStore

        cs = ColumnStore(args.columnar)
        print(
            f"[columnar] {cs.rows} trial row(s) in {cs.shard_count} "
            f"shard(s) at {args.columnar}"
        )
    print(f"campaign run: {report.summary()}")
    if report.interrupted:
        return 130
    return 1 if report.failed else 0


def _cmd_status(store: CampaignStore, args: argparse.Namespace) -> int:
    counts = store.counts()
    print(json.dumps(counts, indent=2))
    failures = store.list_jobs(status="failed", limit=10)
    for job in failures:
        print(f"failed {job.digest[:12]} ({job.spec.label()}): {job.error}")
    print(f"trial cache: {store.trial_cache_size()} entr(ies)")
    return 0


def _cmd_gc(store: CampaignStore, args: argparse.Namespace) -> int:
    older = None if args.older_than is None else args.older_than * 86400.0
    removed = store.gc(
        failed=not args.keep_failed,
        done_older_than=older,
        vacuum=not args.no_vacuum,
    )
    print(
        f"gc: removed {removed['failed']} failed, {removed['done']} done, "
        f"{removed['trial_cache']} cache entr(ies)"
    )
    return 0


def _cmd_serve(store: CampaignStore, args: argparse.Namespace) -> int:
    service = AsyncCampaignService(
        store.path, host=args.host, port=args.port,
        workers=args.workers, queue_limit=args.queue_limit,
    ).start()
    print(
        f"campaign service v2 on {service.url} (db {store.path}, "
        f"{service.workers} worker(s), queue_limit={service.queue_limit}); "
        "Ctrl-C to stop"
    )
    service.serve_forever()
    return 0


def _cmd_load(store: CampaignStore, args: argparse.Namespace) -> int:
    from .loadgen import make_specs, run_closed_loop, run_open_loop

    specs = make_specs(args.submissions, seed0=args.seed0) if args.submissions else []
    if args.mode == "closed":
        report = run_closed_loop(
            args.url, clients=args.clients, duration=args.duration,
            specs=specs, tenant=args.tenant,
        )
    else:
        report = run_open_loop(
            args.url, rate=args.rate, duration=args.duration,
            specs=specs, tenant=args.tenant,
        )
    if args.json:
        print(json.dumps(report.to_record(), indent=2))
    else:
        print(report.summary())
    return 1 if report.server_errors or report.transport_errors else 0


def campaign_main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro-experiments campaign ...``."""
    args = build_campaign_parser().parse_args(argv)
    store = CampaignStore(args.db)
    commands = {
        "submit": _cmd_submit,
        "run": _cmd_run,
        "status": _cmd_status,
        "gc": _cmd_gc,
        "serve": _cmd_serve,
        "load": _cmd_load,
    }
    try:
        return commands[args.verb](store, args)
    finally:
        store.close()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(campaign_main())
