"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by the library derive from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still distinguishing programming errors (``TypeError``/``ValueError`` from
argument validation) from semantic model errors.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ProtocolError",
    "NonDeterministicProtocolError",
    "AsymmetricTransitionError",
    "UnknownStateError",
    "ConfigurationError",
    "SimulationError",
    "ConvergenceError",
    "InvariantViolation",
    "SchedulerError",
    "ExperimentError",
    "AnalysisError",
    "UnknownEngineError",
    "UnknownProtocolError",
    "CampaignError",
    "StoreClosedError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ProtocolError(ReproError):
    """A protocol definition is structurally invalid."""


class NonDeterministicProtocolError(ProtocolError):
    """Two distinct transitions were registered for the same ordered pair.

    Deterministic protocols (the only kind studied in the paper) allow at
    most one transition per ordered state pair.
    """


class AsymmetricTransitionError(ProtocolError):
    """A transition violates the symmetry requirement.

    A transition ``(p, p) -> (p', q')`` with ``p' != q'`` is *asymmetric*;
    symmetric protocols (Section 2.1 of the paper) forbid such transitions
    because two agents in identical states cannot break symmetry in a
    single interaction.
    """


class UnknownStateError(ProtocolError):
    """A state name or index was used that is not part of the state space."""


class ConfigurationError(ReproError):
    """A configuration (count vector / agent assignment) is malformed."""


class SimulationError(ReproError):
    """A simulation engine encountered an unrecoverable condition."""


class ConvergenceError(SimulationError):
    """A simulation exceeded its interaction budget without stabilizing."""

    def __init__(self, message: str, interactions: int | None = None) -> None:
        super().__init__(message)
        #: Number of interactions performed before giving up (if known).
        self.interactions = interactions


class InvariantViolation(SimulationError):
    """A monitored invariant failed during an execution.

    Raised by :class:`~repro.conform.invariants.ConformanceMonitor` (and
    the runtime conformance checks) with the configuration it failed on.
    """

    def __init__(self, message: str, interactions: int, counts: list[int]) -> None:
        super().__init__(message)
        #: Interaction count at which the failing configuration was seen.
        self.interactions = interactions
        #: The failing per-state counts.
        self.counts = counts


class SchedulerError(ReproError):
    """A scheduler was asked to operate on an unsupported population."""


class ExperimentError(ReproError):
    """An experiment harness was configured inconsistently."""


class AnalysisError(ReproError):
    """An analysis routine was given data it cannot fit or invert."""


class UnknownEngineError(SimulationError, ValueError):
    """An engine name is not present in the engine registry.

    Doubles as :class:`ValueError` so registry lookups behave like
    ordinary bad-argument errors for callers outside the library.
    """


class UnknownProtocolError(ProtocolError, ValueError):
    """A protocol name is not present in the protocol registry."""


class CampaignError(ReproError):
    """The campaign subsystem (job store / executor / service) failed."""


class StoreClosedError(CampaignError):
    """A store method was called after the store's ``close()``.

    Raised by the campaign store and the session snapshot store alike
    (:class:`~repro.core.sqliteutil.WalStore`).  Handler threads of a
    shutting-down service can race the owner's ``close()``; a named
    error makes that window loud instead of leaking fresh SQLite
    connections onto a closed store.
    """
