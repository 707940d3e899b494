"""Benchmark: ensemble engine, kernel tiers, and parallel sharding.

The ensemble engine's reason to exist is the paper's evaluation shape:
100 independent replicates per parameter point.  This benchmark times
``run_trials``-style workloads both ways — serial scalar jump chain
per trial vs one vectorized batch — at two working points:

* Figure 3's k = 3, n = 300 (the acceptance point: the batch must be
  several times faster than the serial loop), and
* Figure 6's k = 6, n = 960 (the heavy regime, where the serial
  baseline is extrapolated from a few trials to keep the suite quick).

The serial baseline is the default ``count`` engine, which runs the
compiled jump-chain kernel whenever a native backend is present; on
such a machine the 2.5x floor at the acceptance point no longer holds
(the ensemble is slower than the kernel).  The benchmark also times
the compiled kernel (``count-jit`` against the Python loop, forced
with ``REPRO_KERNEL=python`` — the floor is 2x at the heavy point
whenever a native backend is available) and the sharded parallel
ensemble tier at several worker counts (on single-core CI boxes the
scaling curve is honest and flat; the numbers are recorded either
way).

Besides the pytest-benchmark stats, the measured throughput is written
to ``BENCH_ensemble.json`` at the repository root — together with the
provenance (git revision, CPU count, NumPy/Numba versions, active
kernel backend) of the machine that produced it.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.core.rng import spawn_seed_sequences
from repro.engine import (
    CountBasedEngine,
    EnsembleEngine,
    JitBatchEngine,
    JitCountEngine,
    ParallelEnsembleEngine,
    get_kernels,
    reset_kernels,
)
from repro.engine.kernels import KERNEL_ENV
from repro.protocols import uniform_k_partition

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_ensemble.json"
TRIALS = 100
#: Conservative CI floor; the committed BENCH_ensemble.json records the
#: actual measured speedup (>= 5x on the reference machine).
MIN_SPEEDUP = 2.5
#: Acceptance floor for the compiled jump chain over the Python tier at
#: the heavy point, asserted only when a native backend is active
#: (measured >= 30x with the C backend on the reference machine).
MIN_KERNEL_SPEEDUP = 2.0


def _provenance() -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            cwd=RESULT_PATH.parent,
            check=True,
        ).stdout.strip()
    except Exception:  # noqa: BLE001 — provenance is best effort
        rev = "unknown"
    try:
        import numba

        numba_version = numba.__version__
    except Exception:  # noqa: BLE001 — absence is normal
        numba_version = None
    return {
        "git_rev": rev,
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "numba": numba_version,
        "kernel_backend": get_kernels().backend,
    }


@contextmanager
def _python_loop():
    """Run ``count`` on its pure-Python jump-chain loop."""
    previous = os.environ.get(KERNEL_ENV)
    os.environ[KERNEL_ENV] = "python"
    reset_kernels()
    try:
        yield
    finally:
        if previous is None:
            del os.environ[KERNEL_ENV]
        else:
            os.environ[KERNEL_ENV] = previous
        reset_kernels()


def _serial_seconds_per_trial(protocol, n, *, seed, trials) -> float:
    engine = CountBasedEngine()
    seeds = spawn_seed_sequences(seed, trials)
    start = time.perf_counter()
    for s in seeds:
        result = engine.run(protocol, n, seed=s)
        assert result.converged
    return (time.perf_counter() - start) / trials


def _record(point: str, payload: dict) -> None:
    data = {}
    if RESULT_PATH.exists():
        try:
            data = json.loads(RESULT_PATH.read_text())
        except json.JSONDecodeError:
            data = {}
    data[point] = payload
    data["provenance"] = _provenance()
    RESULT_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize(
    ("k", "n", "serial_trials"),
    [(3, 300, TRIALS), (6, 960, 5)],
    ids=["fig3-k3-n300", "fig6-k6-n960"],
)
def test_ensemble_vs_serial(benchmark, k, n, serial_trials):
    protocol = uniform_k_partition(k)
    protocol.compiled  # warm the compile cache outside the timings
    seeds = spawn_seed_sequences(2026, TRIALS)
    engine = EnsembleEngine()

    def run_batch():
        return engine.run_batch(protocol, n, seeds=seeds)

    results = benchmark.pedantic(run_batch, rounds=3, iterations=1)
    assert len(results) == TRIALS
    assert all(r.converged for r in results)

    ensemble_per_trial = benchmark.stats.stats.min / TRIALS
    serial_per_trial = _serial_seconds_per_trial(
        protocol, n, seed=2026, trials=serial_trials
    )
    speedup = serial_per_trial / ensemble_per_trial
    _record(
        f"k{k}_n{n}",
        {
            "k": k,
            "n": n,
            "trials": TRIALS,
            "serial_trials_measured": serial_trials,
            "serial_seconds_per_trial": round(serial_per_trial, 6),
            "ensemble_seconds_per_trial": round(ensemble_per_trial, 6),
            "speedup": round(speedup, 2),
        },
    )
    if k == 3:  # the acceptance point
        assert speedup >= MIN_SPEEDUP


def _seconds_per_trial(engine, protocol, n, *, seed, trials) -> float:
    seeds = spawn_seed_sequences(seed, trials)
    engine.run(protocol, n, seed=seeds[0])  # warm caches / kernel build
    start = time.perf_counter()
    for s in seeds:
        result = engine.run(protocol, n, seed=s)
        assert result.converged
    return (time.perf_counter() - start) / trials


@pytest.mark.parametrize(
    ("k", "n", "trials"),
    [(3, 300, 20), (6, 960, 5)],
    ids=["fig3-k3-n300", "fig6-k6-n960"],
)
def test_kernel_tier_vs_count(k, n, trials):
    """Compiled jump chain (``count-jit``) against the Python loop."""
    protocol = uniform_k_partition(k)
    protocol.compiled
    with _python_loop():
        python_per_trial = _seconds_per_trial(
            CountBasedEngine(), protocol, n, seed=2026, trials=trials
        )
    kernels = get_kernels()
    jit_per_trial = _seconds_per_trial(
        JitCountEngine(), protocol, n, seed=2026, trials=trials
    )
    speedup = python_per_trial / jit_per_trial
    _record(
        f"kernel_k{k}_n{n}",
        {
            "k": k,
            "n": n,
            "trials": trials,
            "backend": kernels.backend,
            "compile_seconds": round(kernels.compile_seconds, 3),
            "count_seconds_per_trial": round(python_per_trial, 6),
            "count_jit_seconds_per_trial": round(jit_per_trial, 6),
            "speedup": round(speedup, 2),
        },
    )
    if k == 6 and kernels.native:  # the acceptance point for the kernel tier
        assert speedup >= MIN_KERNEL_SPEEDUP


def test_batch_kernel_tier(k=3, n=120):
    """Compiled pair-draw/apply loop (``batch-jit``) against ``batch``."""
    from repro.engine import BatchEngine

    protocol = uniform_k_partition(k)
    protocol.compiled
    kernels = get_kernels()
    budget = 2_000_000
    seeds = spawn_seed_sequences(2026, 3)
    timings = {}
    for engine in (BatchEngine(), JitBatchEngine()):
        engine.run(protocol, n, seed=seeds[0], max_interactions=budget)
        start = time.perf_counter()
        for s in seeds:
            engine.run(protocol, n, seed=s, max_interactions=budget)
        timings[engine.name] = (time.perf_counter() - start) / len(seeds)
    _record(
        f"batch_kernel_k{k}_n{n}",
        {
            "k": k,
            "n": n,
            "backend": kernels.backend,
            "batch_seconds_per_trial": round(timings["batch"], 6),
            "batch_jit_seconds_per_trial": round(timings["batch-jit"], 6),
            "speedup": round(timings["batch"] / timings["batch-jit"], 2),
        },
    )


def test_parallel_ensemble_scaling(k=3, n=300):
    """Sharded parallel batches at increasing worker counts.

    On a single-core machine the curve is flat — the numbers are
    recorded regardless so the scaling behaviour of the box that built
    BENCH_ensemble.json is on record.
    """
    protocol = uniform_k_partition(k)
    protocol.compiled
    seeds = spawn_seed_sequences(2026, TRIALS)
    cpus = os.cpu_count() or 1
    worker_counts = sorted({1, min(2, cpus), cpus})
    scaling = {}
    baseline = None
    for workers in worker_counts:
        engine = ParallelEnsembleEngine(shard_size=25, workers=workers)
        engine.run_batch(protocol, n, seeds=seeds[:25])  # warm forks/caches
        start = time.perf_counter()
        results = engine.run_batch(protocol, n, seeds=seeds)
        elapsed = time.perf_counter() - start
        assert len(results) == TRIALS
        if baseline is None:
            baseline = elapsed
        scaling[str(workers)] = {
            "seconds": round(elapsed, 4),
            "speedup_vs_1_worker": round(baseline / elapsed, 2),
        }
    _record(
        f"parallel_k{k}_n{n}",
        {
            "k": k,
            "n": n,
            "trials": TRIALS,
            "shard_size": 25,
            "cpu_count": cpus,
            "workers": scaling,
        },
    )
