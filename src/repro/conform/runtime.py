"""Process-wide conformance checking for production sweeps.

The differ and fuzzer are offline tools; this module is the *online*
half: :func:`use_conformance` installs a process-wide runtime that
:func:`~repro.engine.runner.run_trials` consults after every completed
trial set, checking each trial's final configuration against the
protocol's invariant pack.  The experiments and campaign CLIs expose it
as the ``--conform`` debug flag — the cost is one pack evaluation per
trial, negligible next to simulation, so it can ride along on any
sweep whose results look suspicious.

Only stateless invariants are enforced here (final counts of different
trials are unrelated configurations, so cross-call invariants like
leader monotonicity would misfire).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from collections.abc import Iterator

from ..core.errors import InvariantViolation
from ..core.protocol import Protocol
from ..engine.base import SimulationResult
from .invariants import Invariant, check_counts, invariant_pack

__all__ = [
    "ConformanceRuntime",
    "use_conformance",
    "active_conformance",
    "check_result",
]


@dataclass(slots=True)
class ConformanceRuntime:
    """State of one installed conformance session.

    strict:
        Raise :class:`~repro.core.errors.InvariantViolation` on
        the first violating result (default).  Non-strict mode only
        accumulates ``violations`` — useful for surveying.
    """

    strict: bool = True
    results_checked: int = 0
    violations: list[str] = field(default_factory=list)
    _packs: dict[tuple[int, int], list[Invariant]] = field(
        default_factory=dict, repr=False
    )

    def pack_for(self, protocol: Protocol, n: int) -> list[Invariant]:
        """The (cached) stateless invariant pack for one parameter point."""
        key = (id(protocol), n)
        pack = self._packs.get(key)
        if pack is None:
            pack = invariant_pack(protocol, n, include_stateful=False)
            self._packs[key] = pack
        return pack


#: Runtime installed by :func:`use_conformance`; None disables checking.
_ACTIVE: ConformanceRuntime | None = None


def active_conformance() -> ConformanceRuntime | None:
    """The runtime currently installed by :func:`use_conformance`."""
    return _ACTIVE


@contextmanager
def use_conformance(
    runtime: ConformanceRuntime | None = None, *, strict: bool = True
) -> Iterator[ConformanceRuntime]:
    """Enable conformance checking of every ``run_trials`` result.

    Yields the installed :class:`ConformanceRuntime` (a fresh one
    unless an existing instance is passed in) so callers can inspect
    ``results_checked`` and ``violations`` afterwards.
    """
    global _ACTIVE
    rt = runtime if runtime is not None else ConformanceRuntime(strict=strict)
    previous = _ACTIVE
    _ACTIVE = rt
    try:
        yield rt
    finally:
        _ACTIVE = previous


def check_result(
    protocol: Protocol,
    result: SimulationResult,
    runtime: ConformanceRuntime | None = None,
) -> list[str]:
    """Check one trial's final configuration against its invariant pack.

    Uses the explicitly passed runtime, else the installed one; with
    neither, the call is a no-op returning ``[]``.  In strict mode a
    violation raises; otherwise the diagnostics are accumulated on the
    runtime and returned.
    """
    rt = runtime if runtime is not None else _ACTIVE
    if rt is None:
        return []
    pack = rt.pack_for(protocol, result.n)
    problems = check_counts(pack, result.final_counts)
    rt.results_checked += 1
    if problems:
        labelled = [
            f"{protocol.name} n={result.n} engine={result.engine}: {p}"
            for p in problems
        ]
        rt.violations.extend(labelled)
        if rt.strict:
            raise InvariantViolation(
                f"final configuration violates {len(problems)} invariant(s): "
                + "; ".join(problems),
                result.interactions,
                [int(c) for c in result.final_counts],
            )
    return problems
