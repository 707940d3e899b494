"""Tests of the end-to-end benchmark harness itself.

Run with ``python3 -m pytest benchmarks/e2e``; they are not part of the
tier-1 suite (``pytest.ini`` collects ``tests/`` only).  The smoke
tests drive each workload for about two seconds and take a minute in
total.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import types

import pytest

import harness
import tracing
from harness import ROOT


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def program():
    """Make ``repro`` importable and keep its temporary files in the checkout."""
    (harness.WORK / "tmp").mkdir(parents=True, exist_ok=True)
    confined = harness.confine()
    saved = {name: os.environ.get(name) for name in confined}
    os.environ.update(confined)
    tempfile.tempdir = None
    sys.path.insert(0, str(harness.SRC))
    yield
    sys.path.remove(str(harness.SRC))
    for name, value in saved.items():
        if value is None:
            os.environ.pop(name)
        else:
            os.environ[name] = value
    tempfile.tempdir = None


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond():
    assert harness.min_samples(0.5) == 20
    assert harness.min_samples(0.95) == 200
    assert harness.percentile(list(range(20)), 0.5) == pytest.approx(9.5)
    with pytest.raises(harness.InsufficientSamples):
        harness.percentile(list(range(19)), 0.5)
    harness.percentile(list(range(200)), 0.95)
    with pytest.raises(harness.InsufficientSamples):
        harness.percentile(list(range(199)), 0.95)


def test_spread_is_quartile_distance_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    # statistics.quantiles(n=4) gives 2, 4, 6 here.
    assert harness.spread(values) == pytest.approx((6 - 2) / 4)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_children():
    spans = [
        (0, "parent", 0.0, 10.0, -1, None, None),
        (1, "a", 1.0, 3.0, 0, None, None),
        (2, "b", 2.0, 4.0, 0, None, None),    # overlaps a: union is 1..4
        (3, "c", 8.0, 12.0, 0, None, None),   # clipped to the parent: 8..10
        (4, "grandchild", 1.5, 2.5, 1, None, None),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10 - 3 - 2)
    assert selfs[1] == pytest.approx(2 - 1)
    assert selfs[4] == pytest.approx(1)


def test_recorder_links_nested_calls_in_threads_and_tasks():
    rec = tracing.Recorder()

    def inner(x):
        return x + 1

    inner = rec.wrap_fn(inner, "inner", value=lambda a, k, r, pre: r)
    outer = rec.wrap_fn(lambda x: inner(x) * 2, "outer", key=lambda a, k, r: "job")

    async def handler():
        return outer(1)

    traced = rec.wrap_fn(handler, "async")
    assert asyncio.run(traced()) == 4
    by_name = {s[tracing.NAME]: s for s in rec.spans}
    assert by_name["async"][tracing.PARENT] == -1
    assert by_name["outer"][tracing.PARENT] == by_name["async"][tracing.ID]
    assert by_name["inner"][tracing.PARENT] == by_name["outer"][tracing.ID]
    assert by_name["outer"][tracing.KEY] == "job"
    assert by_name["inner"][tracing.VALUE] == 2
    ix = tracing.SpanIndex(rec.spans)
    assert ix.top_level_s() == pytest.approx(ix.total_s("async"))


def test_recorder_restores_what_it_patched():
    rec = tracing.Recorder()
    ns = types.SimpleNamespace(f=abs)
    rec.wrap(ns, "f", "f")
    assert ns.f is not abs and ns.f(-2) == 2
    rec.restore()
    assert ns.f is abs
    assert [s[tracing.NAME] for s in rec.spans] == ["f"]


# ----------------------------------------------------------------------
# Catalogue
# ----------------------------------------------------------------------
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_names_and_units_are_well_formed(spec):
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
    assert max(m["bound"] for m in spec["end_to_end"]) <= 0.25


def test_every_layer_metric_points_at_an_end_to_end_metric_and_workload(spec):
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    assert set(tracing.WORKLOADS) == workloads
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.LAYER_MAP)
    for name, (moves, busiest, bypass) in tracing.LAYER_MAP.items():
        assert moves in end_to_end, name
        assert busiest and set(busiest) <= workloads, name
        assert bypass is None or (bypass in workloads and bypass not in busiest), name


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", tracing.WORKLOADS)
def test_two_second_smoke_run_has_no_failures(program, workload):
    import run

    work = harness.WORK / "test" / workload
    shutil.rmtree(work, ignore_errors=True)
    out = run._runner(workload)(1, 2.0, work, min_ops=1)
    assert out.ops > 0 and out.wall_s > 0 and out.latencies_ms
    assert out.attempted > 0
    assert out.failures == []


def test_a_planted_wrong_result_counts_as_a_failure(program, monkeypatch):
    from repro.engine import runner

    import figures

    real = runner.run_trials

    def wrong(*args, **kwargs):
        ts = real(*args, **kwargs)
        if kwargs.get("engine") == figures.KERNEL_ENGINE:
            ts.results[0].interactions += 1
        return ts

    monkeypatch.setattr(runner, "run_trials", wrong)
    work = harness.WORK / "test" / "planted"
    out = figures.run_kernel_sweep(1, 0.1, work, min_ops=1)
    assert out.failed == len(figures.KERNEL_ORACLE_POINTS)


def test_without_the_program_the_command_fails_without_a_result():
    bare = harness.WORK / "test" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "benchmarks" / "e2e", bare / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "kernel-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
