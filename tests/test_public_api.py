"""Public API surface tests.

Downstream users import from the top-level package; these tests pin
the advertised surface so refactors cannot silently break it.
"""

from __future__ import annotations

import importlib

import pytest

import repro


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_core_types_exposed(self):
        for name in (
            "Protocol",
            "StateSpace",
            "TransitionTable",
            "Configuration",
            "Population",
        ):
            assert name in repro.__all__

    def test_engines_exposed(self):
        for name in ("BatchEngine", "CountBasedEngine", "build_engine", "run_trials"):
            assert name in repro.__all__

    def test_protocol_builders_exposed(self):
        for name in (
            "uniform_k_partition",
            "uniform_bipartition",
            "repeated_bipartition",
            "approximate_k_partition",
            "r_generalized_partition",
            "leader_election",
            "approximate_majority",
        ):
            assert name in repro.__all__

    def test_observability_exposed(self):
        for name in (
            "Telemetry",
            "get_telemetry",
            "use_telemetry",
            "TraceWriter",
            "use_trace_writer",
            "read_trace",
        ):
            assert name in repro.__all__

    def test_docstring_quickstart_runs(self):
        """The package docstring's example must stay true."""
        from repro import run_trials, uniform_k_partition

        protocol = uniform_k_partition(3)
        trials = run_trials(protocol, n=30, trials=10, seed=0)
        assert trials.all_converged
        assert trials.results[0].group_sizes.tolist() == [10, 10, 10]


class TestSubpackages:
    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.protocols",
            "repro.scheduling",
            "repro.engine",
            "repro.analysis",
            "repro.experiments",
            "repro.io",
            "repro.campaign",
            "repro.obs",
        ],
    )
    def test_subpackage_all_resolves(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__, f"{module} needs a docstring"
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"

    def test_exceptions_form_one_hierarchy(self):
        from repro.core import errors

        for name in errors.__all__:
            exc = getattr(errors, name)
            assert issubclass(exc, errors.ReproError) or exc is errors.ReproError

    def test_every_public_function_documented(self):
        """All __all__ callables/classes of key modules carry docstrings."""
        for module in (
            "repro.core.protocol",
            "repro.core.configuration",
            "repro.engine.count_based",
            "repro.analysis.exact",
            "repro.protocols.kpartition",
        ):
            mod = importlib.import_module(module)
            for name in mod.__all__:
                obj = getattr(mod, name)
                if callable(obj):
                    assert obj.__doc__, f"{module}.{name} lacks a docstring"


class TestImportFloor:
    def test_entry_points_load_no_scipy_or_networkx(self):
        """scipy and networkx load only in the functions that use them,
        so starting a campaign, the experiment CLI or the session
        daemon pays for neither."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        code = (
            "import sys\n"
            "import repro, repro.campaign, repro.experiments.cli, repro.sessiond.cli\n"
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'networkx'}))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
