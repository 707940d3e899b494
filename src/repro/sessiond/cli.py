"""The ``repro-experiments session`` command family.

Verbs::

    session create    # new session (free-running or schedule-driven)
    session advance   # push one session forward by a budget
    session snapshot  # checkpoint a session right now
    session fork      # branch a new session off a stored checkpoint
    session rewind    # time-travel a session back to a checkpoint
    session result    # terminal SimulationResult of a finished session
    session bisect    # first divergent interaction of two sessions
    session ls        # sessions in a store (or one session's checkpoints)
    session gc        # drop dominated checkpoints, report bytes freed
    session serve     # run the HTTP daemon over a store

Every verb except ``serve`` operates directly on the store file — the
store is the source of truth, so a daemon and the CLI can share one
database (WAL mode keeps them consistent).  Commands print one JSON
document to stdout, so shell pipelines and the CI smoke job can parse
outcomes without scraping.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def build_session_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments session",
        description="live attachable simulations over a snapshot store",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_store(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--store",
            required=True,
            metavar="DB",
            help="snapshot-store SQLite path (created if missing)",
        )

    create = sub.add_parser("create", help="create a new session")
    add_store(create)
    create.add_argument("--id", default=None, help="session id (default: random)")
    create.add_argument("--protocol", default="uniform-k-partition")
    create.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="protocol parameter, e.g. --param k=3 (repeatable)",
    )
    create.add_argument("--engine", default="count")
    create.add_argument(
        "--mode",
        choices=("free", "driven"),
        default="free",
        help="free: engine randomness; driven: replay a recorded schedule",
    )
    create.add_argument("--n", type=int, default=300)
    create.add_argument("--seed", type=int, default=0)
    create.add_argument(
        "--max-interactions",
        type=int,
        default=None,
        help="run budget (free mode) / schedule recording budget (driven)",
    )
    create.add_argument(
        "--checkpoint-interval",
        type=int,
        default=None,
        help="automatic checkpoint cadence in interactions",
    )
    create.add_argument(
        "--schedule",
        default=None,
        metavar="FILE",
        help="driven mode: JSON schedule record to replay "
        "(default: record one fresh from the pristine protocol)",
    )
    create.add_argument(
        "--mutate-rule",
        type=int,
        default=None,
        metavar="RULE",
        help="corrupt one transition rule (conform.mutation) — the "
        "seeded-bug hook for bisection; the replayed schedule is still "
        "recorded from the pristine protocol",
    )

    advance = sub.add_parser("advance", help="advance one session")
    add_store(advance)
    advance.add_argument("id")
    advance.add_argument(
        "--budget",
        type=int,
        default=None,
        help="max interactions this call (default: run to the end)",
    )

    snapshot = sub.add_parser("snapshot", help="checkpoint a session now")
    add_store(snapshot)
    snapshot.add_argument("id")

    fork = sub.add_parser("fork", help="branch a session off a checkpoint")
    add_store(fork)
    fork.add_argument("id")
    fork.add_argument(
        "--at",
        type=int,
        default=None,
        help="checkpointed interaction count (default: current cursor)",
    )
    fork.add_argument("--child-id", default=None)

    rewind = sub.add_parser("rewind", help="time-travel back to a checkpoint")
    add_store(rewind)
    rewind.add_argument("id")
    rewind.add_argument("--at", type=int, required=True)

    result = sub.add_parser("result", help="terminal result of a session")
    add_store(result)
    result.add_argument("id")

    bisect = sub.add_parser(
        "bisect", help="first divergent interaction of two driven sessions"
    )
    add_store(bisect)
    bisect.add_argument("a")
    bisect.add_argument("b")
    bisect.add_argument(
        "--reproducer-dir",
        default=None,
        metavar="DIR",
        help="dump a minimal-reproducer trace there on divergence",
    )

    ls = sub.add_parser("ls", help="list sessions, or one session's checkpoints")
    add_store(ls)
    ls.add_argument("id", nargs="?", default=None)

    gc = sub.add_parser("gc", help="drop dominated checkpoints")
    add_store(gc)
    gc.add_argument(
        "--keep-every",
        type=int,
        default=None,
        help="also keep checkpoints on this interaction grid",
    )

    serve = sub.add_parser("serve", help="run the HTTP session daemon")
    add_store(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642)
    serve.add_argument("--checkpoint-interval", type=int, default=None)
    return parser


def _manager(args: argparse.Namespace):
    from .manager import SessionManager

    kwargs = {}
    if getattr(args, "checkpoint_interval", None) is not None:
        kwargs["checkpoint_interval"] = args.checkpoint_interval
    return SessionManager(args.store, **kwargs)


def _emit(payload: dict | list) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_create(args: argparse.Namespace) -> int:
    from ..protocols.registry import parse_param

    config: dict = {
        "protocol": args.protocol,
        "params": dict(parse_param(p) for p in args.param),
        "engine": args.engine,
        "mode": args.mode,
    }
    if args.protocol in ("uniform-k-partition", "approx-k-partition"):
        config["params"].setdefault("k", 3)
    if args.mutate_rule is not None:
        config["mutate_rule"] = args.mutate_rule
    if args.checkpoint_interval is not None:
        config["checkpoint_interval"] = args.checkpoint_interval
    if args.mode == "driven":
        if args.schedule is not None:
            config["schedule"] = json.loads(Path(args.schedule).read_text())
        else:
            from ..conform.schedule import record_schedule
            from ..protocols.registry import build_protocol

            pristine = build_protocol(args.protocol, **config["params"])
            schedule = record_schedule(
                pristine,
                args.n,
                seed=args.seed,
                max_interactions=args.max_interactions or 2_000_000,
            )
            config["schedule"] = schedule.to_record()
    else:
        config["n"] = args.n
        config["seed"] = args.seed
        if args.max_interactions is not None:
            config["max_interactions"] = args.max_interactions
    manager = _manager(args)
    try:
        _emit(manager.create(config, session_id=args.id))
    finally:
        manager.close()
    return 0


def _cmd_simple(args: argparse.Namespace) -> int:
    manager = _manager(args)
    try:
        if args.verb == "advance":
            _emit(manager.advance(args.id, args.budget))
        elif args.verb == "snapshot":
            _emit(manager.snapshot(args.id))
        elif args.verb == "fork":
            _emit(manager.fork(args.id, at=args.at, child_id=args.child_id))
        elif args.verb == "rewind":
            _emit(manager.rewind(args.id, args.at))
        elif args.verb == "result":
            _emit(manager.result(args.id))
        elif args.verb == "ls":
            if args.id is None:
                _emit(
                    {
                        "store": manager.store.stats(),
                        "sessions": manager.sessions(),
                    }
                )
            else:
                _emit(
                    {
                        "session": manager.status(args.id),
                        "snapshots": manager.snapshots(args.id),
                    }
                )
        elif args.verb == "gc":
            _emit(manager.gc(keep_every=args.keep_every))
    finally:
        manager.close()
    return 0


def _cmd_bisect(args: argparse.Namespace) -> int:
    from .bisect import bisect_divergence

    manager = _manager(args)
    try:
        report = bisect_divergence(
            manager, args.a, args.b, reproducer_dir=args.reproducer_dir
        )
    finally:
        manager.close()
    print(report.summary(), file=sys.stderr)
    _emit(report.to_record())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import SessionService

    service = SessionService(
        args.store,
        args.host,
        args.port,
        checkpoint_interval=args.checkpoint_interval,
    )
    print(f"sessiond listening on {service.url} (store: {args.store})")
    service.serve_forever()
    return 0


def session_main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro-experiments session ...``."""
    args = build_session_parser().parse_args(argv)
    if args.verb == "create":
        return _cmd_create(args)
    if args.verb == "bisect":
        return _cmd_bisect(args)
    if args.verb == "serve":
        return _cmd_serve(args)
    return _cmd_simple(args)
