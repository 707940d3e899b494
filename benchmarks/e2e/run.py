"""End-to-end benchmark of the four user paths (see README.md).

    python3 benchmarks/e2e/run.py --workload NAME --seed S --seconds T --trace 0|1 [--out DIR]

``--trace 0`` prints every end-to-end metric of BENCHMARK.json;
``--trace 1`` runs the workload untraced, traced, and untraced again,
and prints every per-layer metric.  Human-readable lines come first; the last line
of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full result, with provenance, goes to
a JSON file under ``--out``.  The exit code is 0 when every output was
correct, 1 when a correctness check failed, 2 when the run could not
measure (missing sources, too few samples for a percentile, a crash).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from harness import (
    ROOT, SRC, WORK, Daemon, InsufficientSamples, confine, min_samples,
    nproc, percentile, read_line, spawn, stop,
)

#: Fresh-process starts behind ``setup_s`` (untraced) and behind the
#: kernel-build and compile probes (traced).
SETUP_STARTS = 7
PROBE_STARTS = 3
FIGURES = ("fig3-campaign", "kernel-sweep")
#: Every run measures at least this many operations, so the p95 has ten
#: samples beyond it.
MIN_OPS = min_samples(0.95)


def _runner(workload: str):
    import figures
    import services

    return {
        "fig3-campaign": figures.run_fig3,
        "kernel-sweep": figures.run_kernel_sweep,
        "campaign-http": services.run_campaign_http,
        "sessiond-http": services.run_sessiond_http,
    }[workload]


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def fresh_start(workload: str, work: Path) -> tuple[float, dict]:
    """Seconds from spawning a fresh process until the workload's system
    is ready: a figure workload's store open, or a daemon's first
    ``/healthz`` 200.  Also returns the child's own phase timings."""
    import services

    t0 = time.perf_counter()
    if workload in FIGURES:
        launcher = str(ROOT / "benchmarks" / "e2e" / "launch.py")
        proc = spawn([sys.executable, launcher, "setup", workload, str(work)],
                     work / "setup.log")
        try:
            phases = json.loads(read_line(proc, 60))
            elapsed = time.perf_counter() - t0
        finally:
            stop(proc)
        return elapsed, phases
    verb = (services.campaign_verb if workload == "campaign-http"
            else services.session_verb)(work)
    daemon = Daemon.start(services.daemon_argv(verb, None), work / "daemon.log")
    elapsed = time.perf_counter() - t0
    daemon.stop()
    return elapsed, {}


def end_to_end(out, setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "ops_per_s": out.ops_per_s,
        "op_latency_p50_ms": percentile(out.latencies_ms, 0.5),
        "op_latency_p95_ms": percentile(out.latencies_ms, 0.95),
        "peak_rss_mb": out.peak_rss_mb,
    }


def engine_probes(seed: int, work: Path) -> dict[str, float]:
    """Workload-independent engine measurements of every traced run:
    kernel load and protocol compile in fresh processes, the engine
    ablation, and one-versus-two-worker scaling."""
    import figures

    phases = [fresh_start("kernel-sweep", _fresh(work / f"probe{i}"))[1]
              for i in range(PROBE_STARTS)]
    metrics = {
        "engine.kernels.build_ms": statistics.median(
            p["kernel_build_ms"] for p in phases),
        "core.compile_ms": statistics.median(p["compile_ms"] for p in phases),
    }
    metrics.update(figures.engine_ablation(seed))
    metrics.update(figures.two_worker_speedups(seed))
    return metrics


def per_layer(workload: str, seed: int, seconds: float, work: Path,
              report: dict) -> tuple[dict[str, float], list]:
    """The traced run: engine probes, then the workload untraced, traced
    and untraced again."""
    import tracing

    metrics = dict.fromkeys(tracing.LAYER_MAP, 0.0)
    metrics.update(engine_probes(seed, work))
    run = _runner(workload)
    untraced = [run(seed, seconds, _fresh(work / "untraced"), min_ops=MIN_OPS)]
    if workload in FIGURES:
        rec = tracing.Recorder()
        tracing.install(rec)
        try:
            traced = run(seed, seconds, _fresh(work / "traced"), min_ops=MIN_OPS)
        finally:
            rec.restore()
        spans = rec.spans
    else:
        spans_path = work / "spans.json"
        traced = run(seed, seconds, _fresh(work / "traced"),
                     min_ops=MIN_OPS, spans=spans_path)
        spans = tracing.load_spans(spans_path)
    # Untraced runs on both sides of the traced one, so a slow drift in
    # machine speed does not read as tracing overhead.
    untraced.append(run(seed, seconds, _fresh(work / "untraced"), min_ops=MIN_OPS))
    ix = tracing.SpanIndex(tracing.in_window(spans, traced.window))
    metrics.update(tracing.layer_metrics(ix, traced.wall_s))
    metrics.update({
        "fig3-campaign": tracing.in_process_metrics,
        "kernel-sweep": tracing.in_process_metrics,
        "campaign-http": tracing.campaign_http_metrics,
        "sessiond-http": tracing.sessiond_http_metrics,
    }[workload](ix, traced))
    if workload == "fig3-campaign":
        metrics["io.columnar.bytes"] = traced.info["columnar_bytes"]
    baseline = statistics.mean(u.ops_per_s for u in untraced)
    metrics["obs.trace_overhead_frac"] = 1.0 - traced.ops_per_s / baseline
    unknown = set(metrics) - set(tracing.LAYER_MAP)
    if unknown:
        raise RuntimeError(f"per-layer metrics missing from LAYER_MAP: {sorted(unknown)}")
    report["spans"] = len(ix.spans)
    report["ops_per_s"] = {"untraced": [u.ops_per_s for u in untraced],
                           "traced": traced.ops_per_s}
    report["info"] = traced.info
    return metrics, [*untraced, traced]


def provenance(seed: int) -> dict:
    import numpy
    from importlib import metadata

    from repro.engine.kernels import get_kernels

    def git(*args: str) -> str | None:
        if not (ROOT / ".git").exists():
            return None
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        return proc.stdout.strip() if proc.returncode == 0 else None

    try:
        numba = metadata.version("numba")
    except metadata.PackageNotFoundError:
        numba = None
    status = git("status", "--porcelain")
    return {
        "git_rev": git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": numba,
        "kernel_backend": get_kernels().backend,
        "platform": platform.platform(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=WORK / "results")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2

    os.environ.update(confine())
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = None
    sys.path.insert(0, str(SRC))
    from repro.engine.kernels import get_kernels

    started = time.perf_counter()
    get_kernels()  # fill the compiled-kernel cache before anything is timed
    work = _fresh(WORK / "runs" / args.workload)
    report: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace}
    durations: dict[str, float] = {}
    try:
        if args.trace:
            t0 = time.perf_counter()
            metrics, outcomes = per_layer(
                args.workload, args.seed, args.seconds, work, report)
            durations["traced_run_s"] = time.perf_counter() - t0
            wanted = spec["per_layer"]
        else:
            t0 = time.perf_counter()
            starts = [fresh_start(args.workload, _fresh(work / f"setup{i}"))[0]
                      for i in range(SETUP_STARTS)]
            durations["setup_s"] = time.perf_counter() - t0
            t0 = time.perf_counter()
            out = _runner(args.workload)(
                args.seed, args.seconds, _fresh(work / "run"),
                min_ops=MIN_OPS)
            durations["measure_and_check_s"] = time.perf_counter() - t0
            metrics = end_to_end(out, statistics.median(starts))
            outcomes = [out]
            report["setup_starts_s"] = starts
            report["info"] = out.info
            report["samples"] = len(out.latencies_ms)
            wanted = spec["end_to_end"]
    except InsufficientSamples as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # noqa: BLE001 — report and fail without a result
        traceback.print_exc()
        return 2
    durations["total_s"] = time.perf_counter() - started

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    report["failures"] = [f for o in outcomes for f in o.failures][:20]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    report.update(result, provenance=dict(provenance(args.seed), durations_s=durations))
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                       f"{time.time_ns()}.json")
    path.write_text(json.dumps(report, indent=2, default=str) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} attempted, {failed} failed -> {path}")
    for name, item in result["metrics"].items():
        print(f"  {name:42s} {item['value']:14.6g} {item['unit']}")
    for name, value in sorted(report.get("info", {}).items()):
        print(f"  (info) {name:35s} {value:14.6g}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
