"""Job specs: canonical, content-addressed descriptions of one sweep point.

A :class:`JobSpec` pins everything that determines a ``run_trials``
outcome — protocol registry name and parameters, population size,
trial count, engine, master seed, and scheduler — in a canonical form
whose SHA-256 digest is stable across dict ordering, process restarts,
and Python versions.  The digest is the job's identity everywhere in
the campaign subsystem: the store keys on it, the cache short-circuits
on it, and the service addresses results by it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from collections.abc import Mapping

from ..core.errors import (
    CampaignError,
    SchedulerError,
    UnknownEngineError,
    UnknownProtocolError,
)
from ..core.protocol import Protocol
from ..scheduling.spec import SchedulerSpec, scheduler_names

__all__ = ["JobSpec"]

#: Scheduler-name templates job specs accept — the reserved field is
#: now live: weak-fairness (``roundrobin``) and graph-restricted
#: (``graph:*``) schedulers landed with arXiv:1911.04678 /
#: arXiv:2011.08366 protocol families.  Names are validated by
#: :func:`~repro.scheduling.spec.parse_scheduler`; widening this grid
#: never perturbs existing ``uniform`` digests, because ``canonical()``
#: has carried the ``scheduler`` key since the field was reserved.
SUPPORTED_SCHEDULERS = scheduler_names()


def _canonical_value(value: object) -> object:
    """Normalize a parameter value for hashing (tuples become lists)."""
    if isinstance(value, tuple):
        return [_canonical_value(v) for v in value]
    if isinstance(value, list):
        return [_canonical_value(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _canonical_value(v) for k, v in sorted(value.items())}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise CampaignError(
        f"job spec parameters must be JSON scalars/sequences, got {type(value).__name__}"
    )


@dataclass(frozen=True, slots=True)
class JobSpec:
    """One parameter point of a campaign, content-addressed by digest."""

    #: Protocol registry name (see :mod:`repro.protocols.registry`).
    protocol: str
    #: Population size.
    n: int
    #: Protocol-specific constructor parameters (e.g. ``{"k": 4}``).
    params: dict = field(default_factory=dict)
    #: Independent executions at this point (the paper uses 100).
    trials: int = 100
    #: Engine registry name.
    engine: str = "count"
    #: Integer master seed for :func:`~repro.engine.runner.run_trials`.
    seed: int = 0
    #: Canonical scheduler name (see ``SUPPORTED_SCHEDULERS``).
    scheduler: str = "uniform"
    #: State whose count milestones are recorded (Figure 4's ``g_k``).
    track_state: str | None = None
    #: Interaction budget (``None`` = unbounded).
    max_interactions: int | None = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise CampaignError(f"trials must be positive, got {self.trials}")
        if self.n < 2:
            raise CampaignError(f"n must be at least 2, got {self.n}")
        if not isinstance(self.seed, int):
            raise CampaignError("job specs require an integer seed (digests must be stable)")
        try:
            spec = SchedulerSpec.parse(self.scheduler)
        except SchedulerError as exc:
            raise CampaignError(str(exc)) from None
        if spec.name != self.scheduler:
            raise CampaignError(
                f"job specs need the canonical scheduler name {spec.name!r}, "
                f"got {self.scheduler!r} (digests must be stable)"
            )
        if not spec.is_uniform:
            allowed = ("agent",) if spec.kind == "roundrobin" else ("agent", "graph")
            if self.engine not in allowed:
                raise CampaignError(
                    f"scheduler {self.scheduler!r} needs engine "
                    f"{' or '.join(repr(e) for e in allowed)}, got {self.engine!r} "
                    "(the other engines are specialized to the uniform scheduler)"
                )

    # ------------------------------------------------------------------
    # Canonical form and digest
    # ------------------------------------------------------------------
    def canonical(self) -> dict[str, object]:
        """The spec as a canonical, JSON-safe dict (sorted parameters)."""
        return {
            "protocol": self.protocol,
            "n": self.n,
            "params": _canonical_value(dict(self.params)),
            "trials": self.trials,
            "engine": self.engine,
            "seed": self.seed,
            "scheduler": self.scheduler,
            "track_state": self.track_state,
            "max_interactions": self.max_interactions,
        }

    def to_json(self) -> str:
        """Canonical JSON encoding (the store's ``spec`` column)."""
        return json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))

    @property
    def digest(self) -> str:
        """SHA-256 hex digest of the canonical JSON encoding.

        Stable across parameter-dict insertion order: two specs built
        from the same values in any order share one digest.
        """
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "JobSpec":
        """Rebuild a spec from :meth:`canonical` output (or user JSON)."""
        known = {
            "protocol", "n", "params", "trials", "engine", "seed",
            "scheduler", "track_state", "max_interactions",
        }
        unknown = set(payload) - known
        if unknown:
            raise CampaignError(f"unknown job spec fields: {sorted(unknown)}")
        data = dict(payload)
        data.setdefault("params", {})
        return cls(**data)  # type: ignore[arg-type]

    @classmethod
    def from_json(cls, text: str) -> "JobSpec":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def build_protocol(self) -> Protocol:
        """Instantiate the protocol this spec names."""
        from ..protocols.registry import build_protocol

        # Builders commonly expect tuples (e.g. ratio specs); JSON
        # round-trips deliver lists, so convert sequences back.
        params = {
            k: tuple(v) if isinstance(v, list) else v
            for k, v in self.params.items()
        }
        return build_protocol(self.protocol, **params)

    def check_runnable(self) -> None:
        """Raise unless the engine and protocol registries know this spec.

        Raises :class:`~repro.core.errors.UnknownEngineError` or
        :class:`~repro.core.errors.UnknownProtocolError` naming the known
        names.  The store calls it where new specs enter, never on load:
        a stored spec that names a since-deleted engine must still load.
        """
        from ..engine.registry import available_engines
        from ..protocols.registry import available_protocols

        if self.engine not in available_engines():
            raise UnknownEngineError(
                f"unknown engine {self.engine!r}; known engines: "
                + ", ".join(available_engines())
            )
        if self.protocol not in available_protocols():
            raise UnknownProtocolError(
                f"unknown protocol {self.protocol!r}; known protocols: "
                + ", ".join(available_protocols())
            )

    def label(self) -> str:
        """Short human-readable identity for progress lines."""
        params = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return (
            f"{self.protocol}({params}) n={self.n} x{self.trials} "
            f"[{self.engine}] {self.digest[:12]}"
        )
