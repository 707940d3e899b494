"""Resumable execution sessions: the shared scaffolding of every engine.

Historically each engine owned a monolithic ``run()`` that interleaved
its inner loop with the same surrounding machinery — budget accounting,
``prime``/``on_effective``/``finalize`` hook dispatch, stability
bookkeeping, milestone tracking, :class:`SimulationResult` assembly,
telemetry emission.  That scaffolding now lives exactly once, here, in
:class:`EngineSession`; an engine contributes only a *stepper* (its
inner loop) plus state capture/restore, and :meth:`Engine.run` is a
compatibility shim (``start`` a session, ``advance`` to completion,
return ``result``).

Sessions buy three capabilities a monolithic loop cannot offer:

* **Incremental execution** — :meth:`EngineSession.advance` runs the
  stepper for a bounded number of further interactions and reports a
  :class:`SessionStatus`, so long executions can be time-sliced.
* **Checkpoint/resume** — :meth:`EngineSession.snapshot` captures the
  complete mid-run state (counts, agent arrays, interaction counters,
  RNG state, *and any pre-drawn randomness*) as a serializable
  :class:`SessionState`; :meth:`EngineSession.restore` resurrects it,
  in the same process or another one.  A sliced run with snapshot/
  restore between slices reproduces the straight-through run
  bit-for-bit — the property tests pin this for every engine.
* **Driven execution** — :meth:`EngineSession.apply_scheduled` pushes
  one externally chosen interaction through the engine's real data
  path without consuming engine randomness, which is how the
  conformance differ replays a recorded schedule through actual engine
  state instead of hand-built replicas.

Bit-identity discipline: engines pre-draw randomness in blocks, so a
snapshot must carry the *unconsumed* remainder of the current block —
restoring and continuing then consumes the exact stream positions the
uninterrupted run would have.  Slicing never changes when or how much
randomness is drawn, only where the Python loop pauses.
"""

from __future__ import annotations

import copy
import enum
import hashlib
import pickle
import time
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from ..core.errors import SimulationError
from ..core.protocol import Protocol
from ..core.rng import SeedLike, ensure_generator
from ..obs.instruments import record_simulation
from .base import Engine, SimulationResult, StepCallback

__all__ = ["EngineSession", "SessionState", "SessionStatus"]

#: Version of the snapshot payload layout; bumped on incompatible change.
SNAPSHOT_VERSION = 1

#: Budget sentinel for unbounded runs (same value the engines used).
_UNBOUNDED = 2**62

#: Pairs drawn per refill by every pair-stepping session (the
#: :class:`~repro.engine.batch.BatchSession` behind ``agent``,
#: ``batch``, ``batch-jit`` and ``graph``, and ``hybrid``'s first
#: phase), clipped only by the run's interaction budget.  One value for
#: all of them is what lets a scheduler object and the named pair
#: sources consume the identical random stream per seed; changing it
#: changes every recorded result of those engines.
PAIR_BLOCK = 4096


class SessionStatus(enum.Enum):
    """Lifecycle of an :class:`EngineSession`."""

    #: More interactions may still happen; ``advance`` again.
    RUNNING = "running"
    #: A stable configuration was reached.
    CONVERGED = "converged"
    #: The interaction budget ran out first.
    EXHAUSTED = "exhausted"
    #: The configuration is silent (nothing can ever change) but the
    #: protocol's stability predicate is not satisfied — a dead end.
    HALTED = "halted"

    @property
    def terminal(self) -> bool:
        return self is not SessionStatus.RUNNING


def protocol_fingerprint(protocol: Protocol) -> str:
    """Content hash of a protocol's full behaviour description."""
    return hashlib.sha256(protocol.describe().encode()).hexdigest()


@dataclass(slots=True)
class SessionState:
    """A serialized point-in-time capture of an :class:`EngineSession`.

    ``shared`` carries the engine-independent scaffolding (counters,
    milestones, status); ``extra`` carries the engine stepper's own
    payload (agent arrays, Fenwick weights inputs, RNG state, buffered
    randomness).  ``config``/``fingerprint`` pin the run parameters and
    protocol behaviour so a snapshot cannot silently be restored into a
    different experiment.
    """

    engine: str
    protocol: str
    fingerprint: str
    num_states: int
    version: int
    config: dict
    shared: dict
    extra: dict

    def to_bytes(self) -> bytes:
        """Serialize; inverse of :meth:`from_bytes`."""
        return pickle.dumps(
            {
                "engine": self.engine,
                "protocol": self.protocol,
                "fingerprint": self.fingerprint,
                "num_states": self.num_states,
                "version": self.version,
                "config": self.config,
                "shared": self.shared,
                "extra": self.extra,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "SessionState":
        try:
            payload = pickle.loads(blob)
        except Exception as exc:  # noqa: BLE001 — any corruption is terminal
            raise SimulationError(f"undecodable session snapshot: {exc}") from exc
        if not isinstance(payload, dict) or "version" not in payload:
            raise SimulationError("undecodable session snapshot: not a snapshot payload")
        if payload["version"] != SNAPSHOT_VERSION:
            engine = payload.get("engine", "<unknown>")
            raise SimulationError(
                f"session snapshot for engine {engine!r} has payload "
                f"version {payload['version']}, but this library reads "
                f"version {SNAPSHOT_VERSION}"
            )
        return cls(**payload)

    def digest(self) -> str:
        """SHA-256 of the canonical serialized payload.

        The content address the snapshot store dedups blobs by: two
        captures of identical session state (a fork and its parent at
        the fork point, say) hash to the same digest and are stored
        once.
        """
        return hashlib.sha256(self.to_bytes()).hexdigest()


class EngineSession:
    """One resumable execution of a protocol on one engine.

    Subclasses (one per engine, defined next to their engine class)
    implement:

    * ``_advance_inner(target)`` — run the inner loop until
      ``self.interactions >= target``, convergence, silence, or budget
      exhaustion, updating the shared counters.  Jump-chain engines may
      overshoot ``target`` by finishing the in-flight event.
    * ``_capture() -> dict`` / ``_restore(extra)`` — engine-private
      snapshot payload (already-copied data both ways).
    * ``_silent_now() -> bool`` — whether the current configuration is
      silent, using the stepper's own bookkeeping.
    * optionally ``apply_scheduled(a, b, p, q)`` and ``audit()`` for
      driven execution (the conformance differ).

    The base class owns everything else: parameter resolution, budget
    arithmetic, ``prime``/``finalize`` dispatch, status transitions,
    milestone bookkeeping conventions, result assembly, and the
    one-shot :func:`~repro.obs.instruments.record_simulation` emission.
    """

    def __init__(
        self,
        engine_name: str,
        protocol: Protocol,
        n: int | None = None,
        *,
        seed: SeedLike = None,
        initial_counts: Sequence[int] | np.ndarray | None = None,
        max_interactions: int | None = None,
        track_state: str | int | None = None,
        on_effective: StepCallback | None = None,
    ) -> None:
        self._engine_name = engine_name
        self._protocol = protocol
        counts0 = Engine._resolve_initial(protocol, n, initial_counts)
        self._n = int(counts0.sum())
        self._track = Engine._resolve_track_state(protocol, track_state)
        self._max_interactions = max_interactions
        self._budget = max_interactions if max_interactions is not None else _UNBOUNDED
        self._on_effective = on_effective
        self._rng = ensure_generator(seed)
        self._init_counters(counts0)
        self._status = SessionStatus.RUNNING
        self._converged = False
        self._halted = False
        self._primed = False
        self._elapsed = 0.0
        self._result: SimulationResult | None = None
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------
    # Shared scaffolding
    # ------------------------------------------------------------------
    def _init_counters(self, counts0: np.ndarray) -> None:
        """Install the shared counter attributes (overridable for
        engines whose per-replicate counters live elsewhere)."""
        self.counts: list[int] = counts0.tolist()
        self.interactions = 0
        self.effective = 0
        self.milestones: list[int] = []
        self._high_water = self.counts[self._track] if self._track is not None else 0

    @property
    def status(self) -> SessionStatus:
        return self._status

    @property
    def protocol(self) -> Protocol:
        return self._protocol

    @property
    def engine_name(self) -> str:
        return self._engine_name

    def _advance_anchor(self) -> int:
        """Interaction count relative budgets are measured from."""
        return self.interactions

    def advance(self, budget: int | None = None) -> SessionStatus:
        """Run up to ``budget`` further interactions (None = to the end).

        Returns the session status afterwards.  Jump-chain engines skip
        null interactions in closed form, so an advance may overshoot
        the slice boundary by the in-flight event; the *run* budget
        (``max_interactions``) is always respected exactly.
        """
        if self._status.terminal:
            return self._status
        if budget is not None and budget < 1:
            raise SimulationError(f"advance budget must be positive, got {budget}")
        if not self._primed:
            self._primed = True
            self._dispatch_prime()
        target = (
            self._budget
            if budget is None
            else min(self._budget, self._advance_anchor() + budget)
        )
        t0 = time.perf_counter()
        self._advance_inner(target)
        self._elapsed += time.perf_counter() - t0
        status = self._status_after_advance()
        if status.terminal:
            self._finish(status)
        return self._status

    def _status_after_advance(self) -> SessionStatus:
        if self._converged:
            return SessionStatus.CONVERGED
        if self._halted:
            return SessionStatus.HALTED
        if self.interactions >= self._budget:
            return SessionStatus.EXHAUSTED
        return SessionStatus.RUNNING

    def _finish(self, status: SessionStatus) -> None:
        self._status = status
        self._dispatch_finalize()

    def _dispatch_prime(self) -> None:
        Engine._callback_prime(self._on_effective, self.counts)

    def _dispatch_finalize(self) -> None:
        Engine._callback_finalize(self._on_effective, self.interactions, self.counts)

    def result(self) -> SimulationResult:
        """The finished run's :class:`SimulationResult`.

        Raises while the session is still ``RUNNING``.  Assembles the
        result once, emits it to telemetry once, and returns the cached
        object on subsequent calls.
        """
        if not self._status.terminal:
            raise SimulationError(
                "session is still running; advance() it to completion first"
            )
        if self._result is None:
            self._result = self._assemble_result()
            record_simulation(self._result)
        return self._result

    def _assemble_result(self) -> SimulationResult:
        final = np.asarray(self.counts, dtype=np.int64)
        return SimulationResult(
            protocol=self._protocol.name,
            n=self._n,
            engine=self._engine_name,
            interactions=self.interactions,
            effective_interactions=self.effective,
            converged=self._converged,
            silent=self._silent_now(),
            final_counts=final,
            group_sizes=Engine._group_sizes_or_empty(self._protocol, final),
            tracked_milestones=self.milestones,
            elapsed=self._elapsed,
        )

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def _protocol_fingerprint(self) -> str:
        if self._fingerprint is None:
            self._fingerprint = protocol_fingerprint(self._protocol)
        return self._fingerprint

    def snapshot(self) -> SessionState:
        """Capture the complete session state (side-effect free)."""
        return SessionState(
            engine=self._engine_name,
            protocol=self._protocol.name,
            fingerprint=self._protocol_fingerprint(),
            num_states=self._protocol.num_states,
            version=SNAPSHOT_VERSION,
            config={
                "n": self._n,
                "max_interactions": self._max_interactions,
                "track": self._track,
            },
            shared=self._capture_shared(),
            extra=copy.deepcopy(self._capture()),
        )

    def restore(self, state: SessionState | bytes) -> None:
        """Adopt a snapshot previously taken by a compatible session.

        The receiving session must have been constructed with the same
        engine, protocol (by behaviour fingerprint), population, budget
        and tracked state; the seed does not matter — the snapshot
        carries the RNG state.
        """
        if isinstance(state, (bytes, bytearray)):
            state = SessionState.from_bytes(bytes(state))
        if state.engine != self._engine_name:
            raise SimulationError(
                f"snapshot was taken by engine {state.engine!r}, "
                f"cannot restore into {self._engine_name!r}"
            )
        if state.num_states != self._protocol.num_states or (
            state.fingerprint != self._protocol_fingerprint()
        ):
            raise SimulationError(
                f"snapshot was taken for protocol {state.protocol!r} "
                "(different behaviour fingerprint); refusing to restore"
            )
        cfg = state.config
        if cfg["n"] != self._n or cfg["max_interactions"] != self._max_interactions:
            raise SimulationError(
                "snapshot run parameters (n, max_interactions) do not match "
                "this session"
            )
        if cfg["track"] != self._track:
            raise SimulationError("snapshot tracked state does not match this session")
        self._restore_shared(copy.deepcopy(state.shared))
        self._restore(copy.deepcopy(state.extra))
        self._result = None

    def _capture_shared(self) -> dict:
        return {
            "status": self._status.value,
            "interactions": self.interactions,
            "effective": self.effective,
            "milestones": list(self.milestones),
            "high_water": self._high_water,
            "converged": self._converged,
            "halted": self._halted,
            "primed": self._primed,
            "elapsed": self._elapsed,
        }

    def _restore_shared(self, shared: dict) -> None:
        self._status = SessionStatus(shared["status"])
        self.interactions = shared["interactions"]
        self.effective = shared["effective"]
        self.milestones = list(shared["milestones"])
        self._high_water = shared["high_water"]
        self._converged = shared["converged"]
        self._halted = shared["halted"]
        self._primed = shared["primed"]
        self._elapsed = shared["elapsed"]

    # ------------------------------------------------------------------
    # Stepper contract
    # ------------------------------------------------------------------
    def _advance_inner(self, target: int) -> None:
        raise NotImplementedError

    def _capture(self) -> dict:
        raise NotImplementedError

    def _restore(self, extra: dict) -> None:
        raise NotImplementedError

    def _silent_now(self) -> bool:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Driven execution (conformance differ)
    # ------------------------------------------------------------------
    def apply_scheduled(self, a: int, b: int, p: int, q: int) -> bool:
        """Apply one externally scheduled interaction through the
        engine's real data path; returns True when it was effective.

        ``a``/``b`` are agent indices (used by agent-array engines),
        ``p``/``q`` the oracle's ordered state pair (used by count-level
        engines, which never see agent identities).  Driven sessions
        must not also be ``advance``d — the two modes consume state
        differently.
        """
        raise SimulationError(
            f"engine {self._engine_name!r} does not support driven execution"
        )

    def audit(self) -> str | None:
        """Check internal bookkeeping invariants; returns a description
        of the first inconsistency, or None when everything checks out."""
        return None

    # ------------------------------------------------------------------
    # RNG state helpers for steppers
    # ------------------------------------------------------------------
    @staticmethod
    def _rng_state(rng: np.random.Generator) -> dict:
        return copy.deepcopy(rng.bit_generator.state)

    @staticmethod
    def _rng_from_state(state: dict) -> np.random.Generator:
        rng = np.random.default_rng()
        rng.bit_generator.state = copy.deepcopy(state)
        return rng
