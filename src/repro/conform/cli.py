"""The ``repro-experiments conform`` command family.

Three verbs::

    conform diff   # lockstep differential replay through all engines
    conform fuzz   # fixed-seed corpus sweep across the registry
    conform check  # harness self-test / conformance-checked trials

``diff`` defaults to the acceptance configuration (uniform k-partition,
k = 3, n = 300, all eight engine paths) and exits non-zero on any
divergence.  ``fuzz`` runs :func:`~repro.conform.fuzzer.default_corpus`
and exits non-zero if any finding survives.  ``check --self-test``
plants a corrupted transition-table entry and exits non-zero unless
both the differ and the invariant pack catch it; without
``--self-test`` it runs trials under the conformance runtime and
reports violations of the final configurations.
"""

from __future__ import annotations

import argparse
import sys


def _build(protocol: str, raw_params: list[str]):
    """Build a registry protocol, defaulting ``k=3`` where one is needed."""
    from ..protocols.registry import build_protocol, parse_param

    params = dict(parse_param(p) for p in raw_params)
    if protocol in (
        "uniform-k-partition", "approx-k-partition", "weak-k-partition"
    ):
        params.setdefault("k", 3)
    return build_protocol(protocol, **params)


def _scheduler_spec(text: str):
    """argparse type for --scheduler: fail at parse time, not mid-run."""
    from ..core.errors import SchedulerError
    from ..scheduling.spec import SchedulerSpec

    try:
        return SchedulerSpec.parse(text)
    except SchedulerError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_conform_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments conform",
        description="cross-engine differential testing and invariant checks",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    diff = sub.add_parser(
        "diff",
        help="replay one recorded schedule through every engine data path",
    )
    diff.add_argument("--protocol", default="uniform-k-partition")
    diff.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="protocol parameter, e.g. --param k=3 (repeatable)",
    )
    diff.add_argument("--n", type=int, default=300)
    diff.add_argument("--seed", type=int, default=0)
    diff.add_argument(
        "--scheduler",
        default=None,
        type=_scheduler_spec,
        metavar="SPEC",
        help=(
            "record the schedule under a named scheduler, e.g. "
            "graph:cycle, graph:regular:4, roundrobin (default: uniform)"
        ),
    )
    diff.add_argument(
        "--engines",
        default=None,
        metavar="A,B,...",
        help="engine paths to replicate (default: all eight)",
    )
    diff.add_argument(
        "--max-interactions",
        type=int,
        default=2_000_000,
        help="schedule recording budget (the run stops at stability)",
    )
    diff.add_argument(
        "--stride",
        type=int,
        default=1,
        help="compare count vectors every Nth effective step",
    )
    diff.add_argument(
        "--no-invariants",
        action="store_true",
        help="skip the invariant pack on the oracle trajectory",
    )
    diff.add_argument(
        "--reproducer-dir",
        default=None,
        metavar="DIR",
        help="dump a JSONL reproducer trace there on divergence",
    )

    fuzz = sub.add_parser(
        "fuzz", help="run the fixed-seed conformance corpus"
    )
    fuzz.add_argument(
        "--seed", type=int, default=20240801, help="corpus base seed"
    )
    fuzz.add_argument(
        "--reproducer-dir",
        default=None,
        metavar="DIR",
        help="dump JSONL reproducer traces there on divergence",
    )
    fuzz.add_argument(
        "--quiet", action="store_true", help="only print findings"
    )

    check = sub.add_parser(
        "check",
        help="harness self-test, or conformance-checked trial runs",
    )
    check.add_argument(
        "--self-test",
        action="store_true",
        help=(
            "corrupt one transition-table entry and verify the differ "
            "and the invariant pack both catch it (exit 1 otherwise)"
        ),
    )
    check.add_argument("--protocol", default="uniform-k-partition")
    check.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE"
    )
    check.add_argument("--n", type=int, default=60)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--trials", type=int, default=20)
    check.add_argument("--engine", default="count")
    check.add_argument(
        "--max-interactions", type=int, default=2_000_000
    )
    return parser


def _cmd_diff(args: argparse.Namespace) -> int:
    from .differ import run_differential

    protocol = _build(args.protocol, args.param)
    engines = args.engines.split(",") if args.engines else None
    report = run_differential(
        protocol,
        args.n,
        seed=args.seed,
        scheduler=args.scheduler,
        engines=engines,
        max_interactions=args.max_interactions,
        check_invariants=not args.no_invariants,
        reproducer_dir=args.reproducer_dir,
        stride=args.stride,
    )
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .fuzzer import default_corpus, run_fuzz

    cases = default_corpus(seed=args.seed)
    log = None if args.quiet else lambda line: print(line, file=sys.stderr)
    findings = run_fuzz(
        cases, reproducer_dir=args.reproducer_dir, log=log
    )
    if not findings:
        print(f"fuzz: {len(cases)} case(s), no findings")
        return 0
    print(f"fuzz: {len(findings)} finding(s) over {len(cases)} case(s)")
    for f in findings:
        print("  " + f.summary())
    return 1


def _cmd_check(args: argparse.Namespace) -> int:
    if args.self_test:
        from .mutation import self_test

        failures = self_test()
        if failures:
            print(f"self-test FAILED ({len(failures)} problem(s)):")
            for failure in failures:
                print("  " + failure)
            return 1
        print(
            "self-test passed: pristine protocol conforms; the differ and "
            "the invariant pack both catch a corrupted transition-table entry"
        )
        return 0

    from ..engine.runner import run_trials
    from .runtime import use_conformance

    protocol = _build(args.protocol, args.param)
    with use_conformance(strict=False) as rt:
        ts = run_trials(
            protocol,
            args.n,
            trials=args.trials,
            engine=args.engine,
            seed=args.seed,
            max_interactions=args.max_interactions,
        )
    print(ts.summary())
    if rt.violations:
        print(f"conformance: {len(rt.violations)} violation(s):")
        for v in rt.violations:
            print("  " + v)
        return 1
    print(
        f"conformance: {rt.results_checked} final configuration(s) checked, "
        "no violations"
    )
    return 0


def conform_main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro-experiments conform ...``."""
    args = build_conform_parser().parse_args(argv)
    if args.verb == "diff":
        return _cmd_diff(args)
    if args.verb == "fuzz":
        return _cmd_fuzz(args)
    return _cmd_check(args)
