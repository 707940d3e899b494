"""Documentation consistency tests.

The README's code blocks and the experiment names referenced across the
docs must keep working — documentation drift is a bug.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def python_blocks(path: Path) -> list[str]:
    text = path.read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


class TestReadme:
    def test_quickstart_block_runs(self):
        blocks = python_blocks(ROOT / "README.md")
        assert blocks, "README should contain python examples"
        # The first block is the quickstart; it must execute cleanly.
        namespace: dict = {}
        exec(compile(blocks[0], "README.md[quickstart]", "exec"), namespace)

    def test_second_block_runs(self):
        blocks = python_blocks(ROOT / "README.md")
        assert len(blocks) >= 2
        namespace: dict = {}
        exec(compile(blocks[1], "README.md[entrypoints]", "exec"), namespace)

    def test_mentioned_cli_commands_exist(self):
        from repro.experiments.cli import EXPERIMENTS

        text = (ROOT / "README.md").read_text()
        for name in re.findall(r"repro-experiments ([a-z0-9-]+)", text):
            assert name in set(EXPERIMENTS) | {"all", "campaign", "obs", "conform", "session", "results"}, name


class TestExperimentsDoc:
    def test_mentioned_cli_commands_exist(self):
        from repro.experiments.cli import EXPERIMENTS

        text = (ROOT / "EXPERIMENTS.md").read_text()
        for name in re.findall(r"repro-experiments ([a-z0-9-]+)", text):
            assert name in set(EXPERIMENTS) | {"all", "campaign", "obs", "conform", "session", "results"}, name


class TestCampaignDoc:
    def test_documented_verbs_match_the_parser(self):
        """Every verb in docs/campaign.md exists, and vice versa."""
        from repro.campaign.cli import build_campaign_parser

        parser = build_campaign_parser()
        sub = next(
            a for a in parser._actions  # noqa: SLF001 — argparse introspection
            if a.__class__.__name__ == "_SubParsersAction"
        )
        verbs = set(sub.choices)
        text = (ROOT / "docs" / "campaign.md").read_text()
        documented = set(
            re.findall(r"campaign (submit|run|status|gc|serve|load)", text)
        )
        assert documented == verbs

    def test_documented_v2_routes_exist(self):
        """The daemon's routes in the doc match service_v2.py."""
        source = (ROOT / "src/repro/campaign/service_v2.py").read_text()
        text = (ROOT / "docs" / "campaign.md").read_text()
        for route in ("/healthz", "/status", "/tenants", "/jobs",
                      "/jobs/stream", "/progress", "/result/", "/metrics",
                      "/submit"):
            assert route in source and route in text, route

    def test_python_block_names_resolve(self):
        """The docs' python example only uses real public names."""
        import repro.campaign as campaign

        for block in python_blocks(ROOT / "docs" / "campaign.md"):
            for name in re.findall(r"from repro\.campaign import \(([^)]*)\)",
                                   block):
                for imported in re.split(r"[,\s]+", name.strip()):
                    if imported:
                        assert hasattr(campaign, imported), imported


class TestObservabilityDoc:
    def test_documented_verbs_match_the_parser(self):
        """Every ``obs`` verb in docs/observability.md exists, and vice versa."""
        from repro.obs.cli import build_obs_parser

        parser = build_obs_parser()
        sub = next(
            a for a in parser._subparsers._group_actions  # noqa: SLF001
            if hasattr(a, "choices")
        )
        verbs = set(sub.choices)
        text = (ROOT / "docs" / "observability.md").read_text()
        documented = set(re.findall(r"obs (summarize|validate)", text))
        assert documented == verbs

    def test_documented_metrics_match_the_emitters(self):
        """Every metric in the doc's catalogue appears in instruments.py."""
        source = (ROOT / "src/repro/obs/instruments.py").read_text()
        text = (ROOT / "docs" / "observability.md").read_text()
        for name in re.findall(r"`((?:engine|runner)\.[a-z_.<>]+)`", text):
            tail = name.split(".", 1)[1].replace("<name>.", "")
            assert tail.split(".")[-1] in source, name

    def test_quickstart_block_runs(self):
        import repro

        for block in python_blocks(ROOT / "docs" / "observability.md"):
            if "use_telemetry" in block:
                for imported in re.findall(r"from repro import (.+)", block):
                    for name in imported.split(","):
                        assert hasattr(repro, name.strip()), name


class TestDesignDoc:
    def test_experiment_index_modules_exist(self):
        """Every module path cited in DESIGN.md's tables must import."""
        import importlib

        text = (ROOT / "DESIGN.md").read_text()
        for mod in re.findall(r"`repro\.([a-z_.]+)`", text):
            importlib.import_module(f"repro.{mod.rstrip('.')}")

    def test_traceability_tests_exist(self):
        """Test paths cited in TRACEABILITY.md must exist on disk."""
        text = (ROOT / "TRACEABILITY.md").read_text()
        for path in set(re.findall(r"`(tests/[a-z_/]+\.py)", text)):
            assert (ROOT / path).exists(), path


class TestTutorial:
    def test_tutorial_python_blocks_run_in_sequence(self):
        """docs/tutorial.md code blocks execute top to bottom."""
        blocks = python_blocks(ROOT / "docs" / "tutorial.md")
        assert len(blocks) >= 5
        namespace: dict = {}
        for i, block in enumerate(blocks):
            exec(compile(block, f"tutorial.md[block {i}]", "exec"), namespace)

    def test_tutorial_cli_commands_exist(self):
        from repro.experiments.cli import EXPERIMENTS

        text = (ROOT / "docs" / "tutorial.md").read_text()
        for name in re.findall(r"repro-experiments ([a-z0-9-]+)", text):
            assert name in set(EXPERIMENTS) | {"all", "describe"}, name


class TestConformanceDoc:
    def test_documented_verbs_match_the_parser(self):
        """Every verb in docs/conformance.md exists, and vice versa."""
        from repro.conform.cli import build_conform_parser

        parser = build_conform_parser()
        sub = next(
            a for a in parser._actions  # noqa: SLF001 — argparse introspection
            if a.__class__.__name__ == "_SubParsersAction"
        )
        verbs = set(sub.choices)
        text = (ROOT / "docs" / "conformance.md").read_text()
        documented = set(re.findall(r"conform (diff|fuzz|check)", text))
        assert documented == verbs

    def test_first_code_block_runs(self):
        blocks = python_blocks(ROOT / "docs" / "conformance.md")
        assert blocks, "docs/conformance.md should contain python examples"
        namespace: dict = {}
        exec(
            compile(blocks[0], "conformance.md[schedule]", "exec"), namespace
        )
        sched = namespace["sched"]
        assert sched.converged

    def test_differ_block_runs(self):
        blocks = python_blocks(ROOT / "docs" / "conformance.md")
        assert len(blocks) >= 2
        namespace: dict = {}
        exec(compile(blocks[0], "conformance.md[schedule]", "exec"), namespace)
        # The differ example uses n = 300; shrink it for the test by
        # executing with the same protocol but a smaller population.
        from repro.conform import run_differential

        report = run_differential(namespace["proto"], 40, seed=0)
        assert report.ok

    def test_invariant_table_matches_the_pack(self):
        """Every invariant named in the docs table exists in a real pack."""
        from repro.conform import invariant_pack
        from repro.protocols import leader_election, uniform_k_partition

        text = (ROOT / "docs" / "conformance.md").read_text()
        documented = set(re.findall(r"^\| `([a-z0-9-]+)`", text, re.M))
        built = {
            inv.name
            for proto in (uniform_k_partition(3), leader_election())
            for inv in invariant_pack(proto, 10)
        }
        assert documented == built


class TestSessiondDoc:
    def test_documented_verbs_match_the_parser(self):
        """Every verb in docs/sessiond.md exists, and vice versa."""
        from repro.sessiond.cli import build_session_parser

        parser = build_session_parser()
        sub = next(
            a for a in parser._actions  # noqa: SLF001 — argparse introspection
            if a.__class__.__name__ == "_SubParsersAction"
        )
        verbs = set(sub.choices)
        text = (ROOT / "docs" / "sessiond.md").read_text()
        documented = set(
            re.findall(
                r"session \{([a-z,]+)\}", text.replace("\n", " ")
            )[0].split(",")
        )
        assert documented == verbs

    def test_documented_routes_exist(self):
        """The API table covers the service's routes, and they exist."""
        source = (ROOT / "src/repro/sessiond/service.py").read_text()
        text = (ROOT / "docs" / "sessiond.md").read_text()
        for route in ("/healthz", "/metrics", "/sessions", "/bisect", "/gc",
                      "advance", "snapshot", "fork", "rewind", "result"):
            assert route in source and route in text, route

    def test_first_code_block_runs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        blocks = python_blocks(ROOT / "docs" / "sessiond.md")
        assert blocks, "docs/sessiond.md should contain python examples"
        namespace: dict = {}
        exec(compile(blocks[0], "sessiond.md[manager]", "exec"), namespace)


def _api_rows() -> list[tuple[str, str, list[str]]]:
    """``(section module, row module, names)`` for every API.md table row.

    The names are the backticked ones in a row's first cell; a
    backticked ``repro.…`` inside parentheses there names the submodule
    the row documents instead of the section's.  Other parenthesized
    asides (``(+ `.complete`, …)``) are prose, not names.
    """
    rows = []
    section = None
    for line in (ROOT / "API.md").read_text().splitlines():
        heading = re.match(r"## `(repro[a-z_.]*)`", line)
        if heading:
            section = heading.group(1)
            continue
        if section is None or not line.startswith("| `"):
            continue
        cell = line.split(" | ")[0][2:]
        parts = cell.split("`")
        module, names, depth = section, [], 0
        for i, part in enumerate(parts):
            if i % 2 == 0:
                depth += part.count("(") - part.count(")")
            elif depth and re.fullmatch(r"repro(\.[a-z_]+)+", part):
                module = part
            elif not depth:
                names.append(re.match(r"\.?[A-Za-z_][\w.]*", part).group(0))
        rows.append((section, module, names))
    return rows


class TestApiDoc:
    def test_table_names_resolve(self):
        """Every name opening an API.md table row exists on its module."""
        import importlib

        missing = []
        for section, module_name, names in _api_rows():
            module = importlib.import_module(module_name)
            base = None
            for name in names:
                owner = base if name.startswith(".") else module
                if owner is None:
                    missing.append(f"{section}: {name}")
                    continue
                obj = owner
                for attr in name.strip(".").split("."):
                    obj = getattr(obj, attr, None)
                    if obj is None:
                        missing.append(f"{module_name}: {name}")
                        break
                if not name.startswith("."):
                    base = getattr(module, name.split(".")[0], None)
        assert not missing, missing

    def test_rows_parsed(self):
        rows = _api_rows()
        assert len(rows) > 50
        assert ("repro.conform", "repro.conform.differ",
                ["ENGINE_PATHS", "start_driven"]) in rows


class TestSourceDocstrings:
    def test_commands_use_the_console_script(self):
        """Every ``repro-…`` command quoted in ``src/`` names the one
        console script setup.cfg installs."""
        setup = (ROOT / "setup.cfg").read_text()
        scripts = set(re.findall(r"^\s+([\w-]+) = repro\.", setup, re.M))
        assert scripts == {"repro-experiments"}
        bad = [
            f"{path.relative_to(ROOT)}: {command}"
            for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
            for command in re.findall(r"``(repro-[\w-]+)", path.read_text())
            if command not in scripts
        ]
        assert not bad, bad


class TestCiInstalls:
    """Every CI install gives the job what the package declares: a
    clean runner cannot import ``repro`` or collect the suite without
    the runtime requirements and the ``test`` extra."""

    @staticmethod
    def declared() -> tuple[set[str], set[str]]:
        import configparser

        cfg = configparser.ConfigParser()
        cfg.read(ROOT / "setup.cfg")

        def names(value: str) -> set[str]:
            return {
                re.split(r"[<>=!~\[ ]", line.strip())[0].lower()
                for line in value.splitlines()
                if line.strip()
            }

        return (
            names(cfg["options"]["install_requires"]),
            names(cfg["options.extras_require"]["test"]),
        )

    def test_every_pip_install_covers_declared_dependencies(self):
        runtime, test = self.declared()
        assert {"numpy", "scipy", "networkx"} <= runtime and "hypothesis" in test
        lines = re.findall(
            r"pip install (.+)$", (ROOT / ".github/workflows/ci.yml").read_text(),
            flags=re.M,
        )
        installs = [line for line in lines if line.split() != ["--upgrade", "pip"]]
        assert installs
        for line in installs:
            args = [arg.strip("\"'") for arg in line.split() if arg != "-e"]
            if ".[test]" in args:
                continue
            named = {re.split(r"[<>=!~\[]", arg)[0].lower() for arg in args}
            missing = (runtime | test) - named
            assert not missing, f"`pip install {line}` misses {sorted(missing)}"
