"""Shared plumbing for the experiment harness.

Every experiment module follows the same conventions:

* ``run_<name>(**params) -> ResultTable`` does the work with explicit
  parameters defaulting to the paper's full-scale settings;
* ``QUICK_PARAMS`` holds a reduced parameter set that exercises the
  same code path in seconds (used by CI, the benchmarks and ``--quick``);
* ``render_<name>(table) -> str`` produces the terminal figure.

The figure sweeps (Figures 3-6 and the scaling law) declare their grid
once, as a ``<name>_points(**grid) -> list[GridPoint]`` function that
holds the grid's defaults.  ``run_<name>(**grid)`` runs those points,
and :func:`repro.campaign.grids.experiment_specs` turns the same points
into campaign job specs.

Seeds: every experiment derives per-point master seeds from a single
experiment seed with :func:`point_seed`, hashing the parameter tuple,
so adding or re-ordering sweep points never changes other points'
results.
"""

from __future__ import annotations

import hashlib
import inspect
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Callable, Sequence

from ..engine.base import Engine
from ..engine.runner import TrialSet, run_trials
from ..io.results import ResultTable
from ..protocols.kpartition import uniform_k_partition

__all__ = [
    "point_seed",
    "GridPoint",
    "grid_params",
    "ProgressPrinter",
    "trial_progress",
    "write_outputs",
    "DEFAULT_SEED",
]

#: Master seed used by all experiments unless overridden (the paper's
#: publication year + month, for flavour — any constant works).
DEFAULT_SEED = 201801


def point_seed(experiment_seed: int, *key: object) -> int:
    """A stable per-point seed derived from the experiment seed and key.

    Uses SHA-256 of the repr of the key tuple, so the mapping is
    deterministic across processes and Python versions (unlike
    ``hash()``, which is salted).
    """
    payload = repr((experiment_seed,) + key).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


@dataclass(frozen=True, slots=True)
class GridPoint:
    """One point of a figure sweep: ``trials`` runs of uniform k-partition.

    ``seed`` is the point's own master seed (from :func:`point_seed`),
    and ``track_state`` names the state whose milestones the trials
    record (Figure 4 tracks ``g_k``).
    """

    k: int
    n: int
    trials: int
    seed: int
    track_state: str | None = None

    def run(
        self, engine: Engine | str | None, progress: object, label: str
    ) -> TrialSet:
        """Run this point's trials; ``label`` prefixes per-trial progress."""
        return run_trials(
            uniform_k_partition(self.k),
            self.n,
            trials=self.trials,
            engine=engine,
            seed=self.seed,
            track_state=self.track_state,
            progress=trial_progress(progress, label),
        )


def grid_params(points: Callable[..., list[GridPoint]], grid: dict) -> dict:
    """A sweep's table params: ``grid`` with the defaults of ``points``.

    Sequence values become lists so the params serialize as JSON arrays.
    """
    bound = inspect.signature(points).bind(**grid)
    bound.apply_defaults()
    return {
        key: list(value) if isinstance(value, Sequence) else value
        for key, value in bound.arguments.items()
    }


@dataclass(slots=True)
class ProgressPrinter:
    """Lightweight progress reporting to stderr (quiet when disabled)."""

    enabled: bool = True
    _t0: float = 0.0

    def __post_init__(self) -> None:
        self._t0 = time.perf_counter()

    def __call__(self, message: str) -> None:
        if self.enabled:
            elapsed = time.perf_counter() - self._t0
            print(f"[{elapsed:8.1f}s] {message}", file=sys.stderr, flush=True)

    def trials(self, label: str) -> Callable[[int, int], None] | None:
        """A per-trial ``(done, total)`` callback for ``run_trials``.

        Prints quarter-way marks of long points (``total >= 8``) so a
        sweep spending minutes inside one parameter point is visibly
        alive; the point's own completion line still comes from the
        experiment loop.  Returns ``None`` when reporting is disabled
        so the runner skips callback dispatch entirely.

        Marks fire on *threshold crossings*, not exact multiples:
        chunk-reporting callers (the ensemble engine's ``run_batch``,
        ``workers > 1`` spans) jump ``done`` by whole chunks, so a mark
        is printed whenever the highest quarter boundary at or below
        ``done`` advances past the last one reported.
        """
        if not self.enabled:
            return None
        last_mark = 0

        def callback(done: int, total: int) -> None:
            nonlocal last_mark
            if total < 8 or done >= total:
                return
            step = max(1, total // 4)
            mark = (done // step) * step
            if mark > last_mark:
                last_mark = mark
                self(f"{label}: trial {done}/{total}")

        return callback


def trial_progress(progress: object, label: str) -> Callable[[int, int], None] | None:
    """Adapt an experiment's ``progress`` argument for ``run_trials``.

    Experiments accept any ``callable(message)`` for per-point lines;
    only :class:`ProgressPrinter` (or anything else exposing a
    ``trials(label)`` factory) additionally gets per-trial reporting.
    """
    factory = getattr(progress, "trials", None)
    return factory(label) if callable(factory) else None


def write_outputs(
    table: ResultTable,
    out_dir: str | Path | None,
    *,
    render: Callable[[ResultTable], str] | None = None,
) -> None:
    """Persist a result table (CSV + JSON + columnar) and its rendering.

    Does nothing when ``out_dir`` is None (pure in-memory use).  The
    ``<name>.columnar`` shard directory is the out-of-core twin of the
    JSON artifact — ``results query`` aggregates it without loading,
    and :func:`~repro.io.results.load_table` recognizes it directly.
    """
    if out_dir is None:
        return
    import shutil

    out = Path(out_dir)
    table.write_csv(out / f"{table.name}.csv")
    table.write_json(out / f"{table.name}.json")
    columnar = out / f"{table.name}.columnar"
    if columnar.exists():
        # Shards are append-only; a re-run replaces the directory.
        shutil.rmtree(columnar)
    table.to_columnar(columnar)
    if render is not None:
        (out / f"{table.name}.txt").write_text(render(table) + "\n")
