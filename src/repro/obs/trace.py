"""Structured JSONL run traces with provenance.

A *trace* is an append-only JSON-Lines file capturing what a sweep
actually simulated: one ``header`` record with provenance (git
revision, package and library versions, free-form metadata), then one
``trial_set`` record per :func:`~repro.engine.runner.run_trials` call
and one ``trial`` record per individual execution.  The schema is
documented in ``docs/observability.md``; ``schema`` in the header is
bumped on incompatible changes.

Writers flush after every record, so a killed sweep leaves a readable
prefix (the same crash-first discipline as the campaign store), and
every line is an independent JSON object — ``jq``, pandas and
:func:`read_trace` all consume the format directly.

The runner consults a process-wide writer installed with
:func:`use_trace_writer`; the experiments CLI's ``--trace PATH`` flag
is a thin wrapper around that.  Render a trace in the terminal with
``repro-experiments obs summarize PATH``.
"""

from __future__ import annotations

import functools
import json
import platform
import subprocess
import time
from pathlib import Path
from contextlib import contextmanager
from collections.abc import Iterator
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from ..engine.runner import TrialSet

__all__ = [
    "TRACE_SCHEMA",
    "TraceWriter",
    "use_trace_writer",
    "active_trace_writer",
    "read_trace",
    "provenance",
]

#: Trace format version, written into every header record.
TRACE_SCHEMA = 1


@functools.cache
def git_rev() -> str | None:
    """The git revision of the checkout this package runs from, or None.

    Resolved once per process, in the package's own directory: the
    caller's working directory may be another repository, and a
    campaign that stamps every finished job must not fork ``git`` for
    each one.  None when the package is not inside a git checkout.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=5, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def provenance() -> dict[str, object]:
    """Where and with what a trace was produced (JSON-safe)."""
    import numpy

    from .. import __version__

    return {
        "git_rev": git_rev(),
        "package_version": __version__,
        "python_version": platform.python_version(),
        "numpy_version": numpy.__version__,
        "platform": platform.platform(),
    }


class TraceWriter:
    """Append-only JSONL trace file.

    Parameters
    ----------
    path:
        Output file (parent directories are created).  An existing file
        is appended to — re-running a sweep extends its trace, each
        session separated by a fresh header record.
    meta:
        Free-form JSON-safe mapping stored in the header (the CLI puts
        the argv there).
    """

    def __init__(self, path: str | Path, *, meta: dict | None = None) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("a", encoding="utf-8")
        self.records_written = 0
        header = {
            "type": "header",
            "schema": TRACE_SCHEMA,
            "created_unix": time.time(),
            **provenance(),
        }
        if meta:
            header["meta"] = meta
        self.write(header)

    def write(self, record: dict) -> None:
        """Append one JSON-safe record as a line and flush."""
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        self.records_written += 1

    def write_trial_set(
        self,
        ts: "TrialSet",
        *,
        seed: object = None,
        cached: bool = False,
        elapsed: float | None = None,
    ) -> None:
        """Record one ``run_trials`` outcome: a summary plus per-trial rows."""
        self.write(
            {
                "type": "trial_set",
                "time_unix": time.time(),
                "seed": seed if isinstance(seed, int) else None,
                "cached": cached,
                "elapsed_seconds": elapsed,
                **ts.stats(),
            }
        )
        for index, r in enumerate(ts.results):
            self.write(
                {
                    "type": "trial",
                    "protocol": r.protocol,
                    "n": r.n,
                    "engine": r.engine,
                    "trial_index": index,
                    "interactions": r.interactions,
                    "effective_interactions": r.effective_interactions,
                    "converged": r.converged,
                    "silent": r.silent,
                    "group_sizes": [int(g) for g in r.group_sizes],
                    "elapsed_seconds": r.elapsed,
                }
            )

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


#: Process-wide writer consulted by ``run_trials``; None disables tracing.
_ACTIVE_TRACE: TraceWriter | None = None


def active_trace_writer() -> TraceWriter | None:
    """The writer currently installed by :func:`use_trace_writer`."""
    return _ACTIVE_TRACE


@contextmanager
def use_trace_writer(writer: TraceWriter | None) -> Iterator[TraceWriter | None]:
    """Install ``writer`` as the process-wide trace sink for the block.

    Every :func:`~repro.engine.runner.run_trials` call inside the block
    appends its trial records; ``None`` silences tracing (useful for
    nesting).  The writer is *not* closed on exit — the caller owns it.
    """
    global _ACTIVE_TRACE
    previous = _ACTIVE_TRACE
    _ACTIVE_TRACE = writer
    try:
        yield writer
    finally:
        _ACTIVE_TRACE = previous


def read_trace(path: str | Path) -> list[dict]:
    """Parse a JSONL trace back into a list of records.

    Raises ``ValueError`` with the offending line number on malformed
    lines — a trace that parses is the CI smoke criterion.
    """
    records: list[dict] = []
    with Path(path).open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: bad trace line: {exc}") from exc
            if not isinstance(record, dict) or "type" not in record:
                raise ValueError(
                    f"{path}:{lineno}: trace records must be objects with a 'type'"
                )
            records.append(record)
    return records
