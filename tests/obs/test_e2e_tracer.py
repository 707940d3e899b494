"""The end-to-end benchmark's tracer still fits the package.

``benchmarks/e2e/tracing.py`` attributes time by replacing functions
and methods of ``repro`` from outside.  A rename in ``src/`` makes its
``install`` raise, and ``--trace 1`` then crashes before it measures
anything.  This test loads the tracer as it is, installs it and
restores it, and checks that every attribute it replaced is put back.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "tracing.py"

#: Module attributes the tracer replaces, which the package must keep
#: calling through the module (so the wrapped function is the one run).
ROUTED = {
    "repro.campaign.executor": (
        "execute_spec", "execute_spec_resumable", "finalize_trials",
        "run_campaign",
    ),
    "repro.campaign.service_v2": ("execute_spec",),
    "repro.engine.runner": ("run_trials", "finalize_trials"),
}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("e2e_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_restore_puts_every_attribute_back(tracing):
    import importlib

    rec = tracing.Recorder()
    try:
        tracing.install(rec)
        patched = list(rec._undo)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, (owner, attr)
        for module_name, attrs in ROUTED.items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                assert any(
                    owner is module and name == attr for owner, name, _ in patched
                ), f"{module_name}.{attr} is no longer traced"
    finally:
        rec.restore()
    assert rec._undo == []
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)


def test_traced_execute_spec_attributes_finalize(tracing):
    from repro.campaign import executor

    rec = tracing.Recorder()
    spec = {
        "protocol": "uniform-k-partition", "params": {"k": 3},
        "n": 9, "trials": 2, "seed": 5,
    }
    try:
        tracing.install(rec)
        executor.execute_spec(spec)
    finally:
        rec.restore()
    by_name = {span[tracing.NAME]: span for span in rec.spans}
    execute = by_name["campaign.executor.execute"]
    # finalize_trials is called through the attribute the tracer wraps,
    # so its time is attributed inside the job's span.
    assert by_name["engine.runner.finalize"][tracing.PARENT] == execute[tracing.ID]
