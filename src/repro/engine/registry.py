"""Engine registry: resolve engines by name.

Experiments, the CLI, and :func:`~repro.engine.runner.run_trials`
accept either an :class:`~repro.engine.base.Engine` instance or a
string name; this module maps names to constructors so callers can say
``engine="ensemble"`` without importing engine classes.  Third-party
engines can join via :func:`register_engine`.

Several names build one engine under a second name, so results, JobSpec
digests and trial-cache keys recorded under each name stay valid:
``agent``, ``batch``, ``batch-jit`` and ``graph`` build
:class:`~repro.engine.batch.BatchEngine` (``graph`` on
``graph:complete`` unless a scheduler says otherwise), and ``count-jit``
builds :class:`~repro.engine.count_based.CountBasedEngine`.
"""

from __future__ import annotations

import difflib
from collections.abc import Callable
from functools import partial

from ..core.errors import SimulationError, UnknownEngineError
from ..scheduling.spec import SchedulerSpec
from .base import Engine
from .batch import SCHEDULER_KINDS, BatchEngine
from .count_based import CountBasedEngine
from .ensemble import EnsembleEngine
from .hybrid import HybridEngine
from .parallel import ParallelEnsembleEngine

__all__ = [
    "available_engines",
    "build_engine",
    "engine_for_scheduler",
    "register_engine",
    "resolve_engine",
    "scheduler_engines",
]


def _count_jit() -> CountBasedEngine:
    engine = CountBasedEngine()
    engine.name = "count-jit"
    return engine


_REGISTRY: dict[str, Callable[[], Engine]] = {
    "agent": partial(BatchEngine, name="agent"),
    "batch": BatchEngine,
    "batch-jit": partial(BatchEngine, name="batch-jit"),
    "graph": partial(BatchEngine, "graph:complete", name="graph"),
    CountBasedEngine.name: CountBasedEngine,
    "count-jit": _count_jit,
    HybridEngine.name: HybridEngine,
    EnsembleEngine.name: EnsembleEngine,
    ParallelEnsembleEngine.name: ParallelEnsembleEngine,
}


def scheduler_engines(kind: str) -> tuple[str, ...]:
    """The engine names that can run a non-uniform scheduler ``kind``,
    the default first (every name runs ``uniform``)."""
    return tuple(name for name, kinds in SCHEDULER_KINDS.items() if kind in kinds)


def available_engines() -> tuple[str, ...]:
    """Registered engine names, sorted."""
    return tuple(sorted(_REGISTRY))


def register_engine(name: str, factory: Callable[[], Engine]) -> None:
    """Register ``factory`` under ``name`` (overwrites existing entries)."""
    if not name:
        raise ValueError("engine name must be non-empty")
    _REGISTRY[name] = factory


def build_engine(name: str) -> Engine:
    """Instantiate the engine registered under ``name``.

    Raises
    ------
    UnknownEngineError
        (a :class:`ValueError`) listing every registered name and, when
        one is close enough, the most likely intended spelling.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(available_engines())
        message = f"unknown engine {name!r}; known engines: {known}"
        close = difflib.get_close_matches(name, available_engines(), n=1)
        if close:
            message += f" (did you mean {close[0]!r}?)"
        raise UnknownEngineError(message) from None
    return factory()


def resolve_engine(engine: Engine | str | None, default: str = "count") -> Engine:
    """Normalize an engine argument: instance, name, or None (default)."""
    if engine is None:
        return build_engine(default)
    if isinstance(engine, str):
        return build_engine(engine)
    return engine


def engine_for_scheduler(
    engine: Engine | str | None,
    scheduler: str | SchedulerSpec | None,
    default: str = "count",
) -> Engine:
    """Resolve an engine configured for the requested scheduler.

    ``scheduler`` of ``None`` or ``"uniform"`` leaves the engine choice
    untouched (each name runs its own default scheduler).  Otherwise
    the name must accept the scheduler's kind
    (:func:`scheduler_engines`; ``None`` picks the kind's default,
    ``graph`` for ``graph:*`` and ``agent`` for ``roundrobin``) and a
    :class:`~repro.engine.batch.BatchEngine` of that name and scheduler
    is built.

    A ``BatchEngine`` instance passes through when it already runs this
    scheduler, and is rebuilt under its own name when it runs the
    uniform scheduler and its name accepts the kind; any other instance
    is refused.
    """
    spec = None if scheduler is None else SchedulerSpec.parse(scheduler)
    if spec is None or spec.is_uniform:
        return resolve_engine(engine, default)
    allowed = scheduler_engines(spec.kind)
    if engine is None:
        engine = allowed[0]
    if isinstance(engine, str):
        if engine not in SCHEDULER_KINDS:
            raise SimulationError(
                f"engine {engine!r} runs only the uniform scheduler, not "
                f"{spec.name!r}; use {' or '.join(repr(e) for e in allowed)}"
            )
        # Refuses a kind this name does not accept.
        return BatchEngine(spec, name=engine)
    if isinstance(engine, BatchEngine) and engine.spec is not None:
        if engine.spec == spec:
            return engine
        if engine.spec.is_uniform and engine.name in allowed:
            return BatchEngine(spec, name=engine.name)
        if not engine.spec.is_uniform:
            raise SimulationError(
                f"engine instance is configured for {engine.spec.name!r}, "
                f"not {spec.name!r}"
            )
    raise SimulationError(
        f"engine instance {engine.name!r} cannot run scheduler {spec.name!r}; "
        "pass an engine name instead"
    )
