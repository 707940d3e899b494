"""The session manager: live engine sessions over a durable store.

A :class:`SessionManager` hosts many concurrent simulations, each a
real :class:`~repro.engine.session.EngineSession`, and keeps every one
durable through the :class:`~repro.sessiond.store.SnapshotStore`:
sessions checkpoint automatically every ``checkpoint_interval``
interactions and at every terminal transition, so a manager (or a
daemon restart) can :meth:`attach` to any session and resume from its
latest checkpoint.

Two advancement modes exist per session:

``free``
    The engine runs on its own randomness, exactly as
    :meth:`Engine.run` would — ``advance`` slices the run into
    checkpoint-sized chunks.

``driven``
    The session replays a recorded
    :class:`~repro.conform.schedule.InteractionSchedule` through the
    engine's real data path via ``apply_scheduled`` — no engine
    randomness is consumed, so the trajectory is a pure function of
    (schedule, protocol).  That determinism is what makes time-travel
    replay bit-identical and divergence bisection meaningful.  Because
    count-level engines never see agent identities, the manager steps
    the name-level
    :class:`~repro.core.population.ReferenceInterpreter` alongside the
    engine to translate each scheduled pair ``(a, b)`` into the ordered
    state pair ``(p, q)`` the engine needs.  The driver sidecar of every
    checkpoint carries the interpreter's per-agent states (the
    *shadow*) and the session's *trail*: a digest chained over the
    outcome ``(index, p2, q2)`` of every effective step so far, which
    does not depend on where checkpoints fall.  Two sessions on one
    schedule with equal trails at ``t`` agree on every step before
    ``t``, which is what lets bisection start from the last checkpoint
    both share.

Budget-sliced fairness: :meth:`pump` advances every running session
round-robin in bounded slices, so one monopolizing run cannot starve
the rest of the fleet.
"""

from __future__ import annotations

import hashlib
import json
import struct
import threading
import uuid
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ..conform.differ import start_driven
from ..conform.schedule import InteractionSchedule
from ..core.errors import SimulationError
from ..core.population import ReferenceInterpreter
from ..core.protocol import Protocol
from ..engine.base import Engine, SimulationResult
from ..engine.registry import engine_for_scheduler
from ..engine.session import EngineSession, SessionStatus, protocol_fingerprint
from ..obs.telemetry import get_telemetry
from ..protocols.registry import build_protocol
from .store import Checkpoint, SnapshotStore

__all__ = [
    "SessionManager",
    "ManagedSession",
    "config_digest",
]

#: Default automatic-checkpoint cadence (interactions).
DEFAULT_CHECKPOINT_INTERVAL = 4096

#: One effective step's outcome in a driven session's trail:
#: (index, p2, q2).
_OUTCOME = struct.Struct("<qii")


def config_digest(config: dict) -> str:
    """SHA-256 of the canonical JSON encoding of a session config."""
    return hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()
    ).hexdigest()


def _build_session_protocol(config: dict) -> Protocol:
    """The protocol a config describes, mutation applied if requested."""
    protocol = build_protocol(config["protocol"], **config.get("params", {}))
    rule = config.get("mutate_rule")
    if rule is not None:
        from ..conform.mutation import mutate_protocol

        protocol = mutate_protocol(
            protocol, tuple(rule) if isinstance(rule, list) else rule
        )
    return protocol


@dataclass(slots=True)
class ManagedSession:
    """One live session plus the manager-owned coordinates.

    For driven sessions the engine's internal counters stay at zero
    (``apply_scheduled`` bypasses them), so ``cursor``/``effective``
    here are the authoritative position; for free sessions they mirror
    the engine session's own counters after every advance.
    """

    id: str
    engine: str
    mode: str
    config: dict
    protocol: Protocol
    session: EngineSession
    schedule: InteractionSchedule | None
    checkpoint_interval: int
    cursor: int = 0
    effective: int = 0
    status: SessionStatus = SessionStatus.RUNNING
    #: Driven mode only: the name-level interpreter of the schedule.
    interpreter: ReferenceInterpreter | None = None
    #: Driven mode only: the digest chained over every effective step's
    #: outcome so far (b"" at interaction 0); None after restoring a
    #: checkpoint that was stored without one.
    trail: bytes | None = b""
    result_record: dict | None = field(default=None, repr=False)

    @property
    def terminal(self) -> bool:
        return self.status.terminal

    def step(self) -> None:
        """Replay the next schedule pair through the engine data path.

        The reference interpreter supplies the ordered state pair; the
        engine's own verdict on effectiveness must match the
        interpreter's — a mismatch means the compiled data path diverged
        from the rule listing, which is a hard error here (the
        conformance differ exists to localize those).
        """
        assert self.schedule is not None and self.interpreter is not None
        a, b = self.schedule.pairs[self.cursor]
        p, q, effective = self.interpreter.step(a, b)
        if self.session.apply_scheduled(a, b, p, q) != effective:
            names = self.protocol.space.names
            raise SimulationError(
                f"session {self.id!r}: engine {self.engine!r} disagrees with "
                f"the rule listing at interaction {self.cursor} "
                f"(pair ({names[p]}, {names[q]})); run the conformance "
                "differ to localize the divergence"
            )
        if effective:
            self.effective += 1
            if self.trail is not None:
                states = self.interpreter.states
                self.trail = hashlib.blake2b(
                    self.trail + _OUTCOME.pack(self.cursor, states[a], states[b]),
                    digest_size=16,
                ).digest()
        self.cursor += 1


class SessionManager:
    """Create, advance, fork, rewind and persist live sessions.

    Thread-safe via one coarse lock — the HTTP daemon's handler threads
    all funnel through it, which is plenty for a debugging service and
    keeps the engine sessions single-threaded as they require.
    """

    def __init__(
        self,
        store: SnapshotStore | str | Path,
        *,
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
    ) -> None:
        if checkpoint_interval < 1:
            raise SimulationError(
                f"checkpoint_interval must be positive, got {checkpoint_interval}"
            )
        self.store = (
            store if isinstance(store, SnapshotStore) else SnapshotStore(store)
        )
        self.checkpoint_interval = checkpoint_interval
        self._live: dict[str, ManagedSession] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def create(self, config: dict, *, session_id: str | None = None) -> dict:
        """Create a session from a config dict and checkpoint it at 0.

        Config keys: ``protocol`` (registry name), ``params`` (builder
        kwargs), ``engine``, ``mode`` ("free" | "driven"), and then
        per-mode — free: ``n`` (or ``initial_counts``), ``seed``,
        ``max_interactions``, ``track``, ``scheduler`` (a scheduler name,
        resolved with the engine as :func:`~repro.engine.runner.run_trials`
        resolves it; absent means uniform); driven: ``schedule`` (an
        :meth:`InteractionSchedule.to_record` dict).  ``mutate_rule``
        (optional) corrupts one transition rule via
        :func:`~repro.conform.mutation.mutate_protocol` — the seeded-bug
        hook the bisection self-test uses.  ``checkpoint_interval``
        overrides the manager default for this session.
        """
        with self._lock:
            sid = session_id or f"s-{uuid.uuid4().hex[:12]}"
            ms = self._build(sid, dict(config))
            self.store.create_session(
                sid,
                engine=ms.engine,
                protocol=ms.protocol.name,
                fingerprint=protocol_fingerprint(ms.protocol),
                config=ms.config,
                mode=ms.mode,
            )
            self._checkpoint(ms)
            self._live[sid] = ms
            self._update_gauge()
            return self.status(sid)

    def _build(self, sid: str, config: dict) -> ManagedSession:
        """A fresh ManagedSession at interaction 0 (nothing persisted)."""
        mode = config.get("mode", "free")
        engine_name = config.get("engine", "count")
        protocol = _build_session_protocol(config)
        interval = int(
            config.get("checkpoint_interval", self.checkpoint_interval)
        )
        if interval < 1:
            raise SimulationError(
                f"checkpoint_interval must be positive, got {interval}"
            )
        if mode == "driven":
            if "schedule" not in config:
                raise SimulationError(
                    "driven sessions need a recorded schedule "
                    "(config key 'schedule')"
                )
            schedule = InteractionSchedule.from_record(config["schedule"])
            if len(schedule.initial_counts) != protocol.num_states:
                raise SimulationError(
                    f"schedule has {len(schedule.initial_counts)} states, "
                    f"protocol has {protocol.num_states}"
                )
            session = start_driven(engine_name, protocol, schedule.initial_counts)
            interpreter = ReferenceInterpreter.at(protocol, schedule.initial_counts)
        elif mode == "free":
            schedule = None
            interpreter = None
            engine = engine_for_scheduler(
                engine_name, config.get("scheduler", "uniform")
            )
            session = engine.start(
                protocol,
                config.get("n"),
                seed=config.get("seed"),
                initial_counts=config.get("initial_counts"),
                max_interactions=config.get("max_interactions"),
                track_state=config.get("track"),
            )
        else:
            raise SimulationError(
                f"unknown session mode {mode!r}; expected 'free' or 'driven'"
            )
        config["mode"] = mode
        config["engine"] = engine_name
        config["checkpoint_interval"] = interval
        return ManagedSession(
            id=sid,
            engine=engine_name,
            mode=mode,
            config=config,
            protocol=protocol,
            session=session,
            schedule=schedule,
            checkpoint_interval=interval,
            interpreter=interpreter,
        )

    def attach(self, session_id: str) -> dict:
        """Resurrect a stored session from its latest durable checkpoint.

        The in-memory session (if any) is discarded: attach answers
        "what does the store say", which is also what a freshly started
        daemon does for every session it finds.
        """
        with self._lock:
            row = self.store.require_session(session_id)
            ms = self._build(session_id, row.config)
            ckpt = self.store.latest_snapshot(session_id)
            if ckpt is None:
                raise SimulationError(
                    f"session {session_id!r} has no stored checkpoint to attach to"
                )
            self._restore_into(ms, ckpt)
            self._live[session_id] = ms
            self.store.update_session(
                session_id,
                status=ms.status.value,
                cursor=ms.cursor,
                effective=ms.effective,
            )
            self._update_gauge()
            return self.status(session_id)

    def delete(self, session_id: str) -> None:
        """Drop the live session and tombstone its store row."""
        with self._lock:
            self._live.pop(session_id, None)
            self.store.require_session(session_id)
            self.store.delete_session(session_id)
            self._update_gauge()

    def close(self) -> None:
        """Checkpoint every live session and release the store."""
        with self._lock:
            for ms in self._live.values():
                self._checkpoint(ms)
            self._live.clear()
            self._update_gauge()
            self.store.close()

    # ------------------------------------------------------------------
    # Advancement
    # ------------------------------------------------------------------
    def advance(self, session_id: str, budget: int | None = None) -> dict:
        """Advance one session by up to ``budget`` interactions.

        ``budget=None`` runs to the end (terminal status for free
        sessions, schedule end for driven ones).  Checkpoints land on
        the session's cadence and at the terminal transition.  Returns
        the post-advance :meth:`status` payload plus the number of
        interactions actually advanced.
        """
        if budget is not None and budget < 1:
            raise SimulationError(f"advance budget must be positive, got {budget}")
        with self._lock:
            ms = self._require_live(session_id)
            before = ms.cursor
            if not ms.terminal:
                if ms.mode == "driven":
                    self._advance_driven(ms, budget)
                else:
                    self._advance_free(ms, budget)
                self.store.update_session(
                    session_id,
                    status=ms.status.value,
                    cursor=ms.cursor,
                    effective=ms.effective,
                )
                if ms.terminal:
                    self._update_gauge()
            payload = self.status(session_id)
            payload["advanced"] = ms.cursor - before
            return payload

    def pump(self, budget: int, *, slice_budget: int | None = None) -> dict:
        """Advance every running session fairly, round-robin.

        ``budget`` is the total interaction budget for this call;
        ``slice_budget`` (default: the manager's checkpoint interval)
        bounds each session's turn, so a long-running session cannot
        starve the others.  Returns per-session advancement counts.
        """
        if budget < 1:
            raise SimulationError(f"pump budget must be positive, got {budget}")
        slice_budget = slice_budget or self.checkpoint_interval
        if slice_budget < 1:
            raise SimulationError(
                f"slice_budget must be positive, got {slice_budget}"
            )
        with self._lock:
            advanced: dict[str, int] = {}
            rounds = 0
            remaining = budget
            while remaining > 0:
                runnable = [
                    sid for sid, ms in self._live.items() if not ms.terminal
                ]
                if not runnable:
                    break
                rounds += 1
                progressed = False
                for sid in runnable:
                    if remaining <= 0:
                        break
                    step = self.advance(sid, min(slice_budget, remaining))
                    got = step["advanced"]
                    advanced[sid] = advanced.get(sid, 0) + got
                    remaining -= got
                    progressed = progressed or got > 0
                if not progressed:
                    break
            return {
                "budget": budget,
                "advanced": budget - remaining,
                "rounds": rounds,
                "sessions": advanced,
            }

    def _advance_free(self, ms: ManagedSession, budget: int | None) -> None:
        """Slice a free-running session into checkpoint-sized chunks."""
        session = ms.session
        remaining = budget
        while not ms.terminal:
            since_last = ms.cursor % ms.checkpoint_interval
            step = ms.checkpoint_interval - since_last
            if remaining is not None:
                step = min(step, remaining)
                if step <= 0:
                    break
            session.advance(step)
            got = session.interactions - ms.cursor
            ms.cursor = session.interactions
            ms.effective = session.effective
            ms.status = session.status
            if remaining is not None:
                remaining -= got
            self._checkpoint(ms)
            if got == 0 and not ms.terminal:
                raise SimulationError(
                    f"session {ms.id!r} made no progress on advance"
                )

    def _advance_driven(self, ms: ManagedSession, budget: int | None) -> None:
        """Replay further schedule pairs, checkpointing on the cadence."""
        assert ms.schedule is not None
        end = len(ms.schedule.pairs)
        self._drive(ms, end if budget is None else min(end, ms.cursor + budget))
        if ms.cursor >= end:
            ms.status = self._driven_terminal_status(ms)
            self._checkpoint(ms)

    def _drive(
        self, ms: ManagedSession, stop: int, *, checkpoint: bool = True
    ) -> None:
        """Step the schedule up to ``stop``; ``checkpoint=False`` for probes."""
        while ms.cursor < stop:
            ms.step()
            if checkpoint and ms.cursor % ms.checkpoint_interval == 0:
                self._checkpoint(ms)

    def _driven_terminal_status(self, ms: ManagedSession) -> SessionStatus:
        assert ms.schedule is not None
        pred = ms.protocol.stability_predicate(ms.schedule.n)
        counts = np.asarray(ms.session.counts, dtype=np.int64)
        if pred is not None:
            if pred(list(ms.session.counts)):
                return SessionStatus.CONVERGED
        elif ms.protocol.compiled.is_silent(counts):
            return SessionStatus.CONVERGED
        if ms.protocol.compiled.is_silent(counts):
            return SessionStatus.HALTED
        return SessionStatus.EXHAUSTED

    # ------------------------------------------------------------------
    # Checkpoints, forks, rewind
    # ------------------------------------------------------------------
    def snapshot(self, session_id: str) -> dict:
        """Checkpoint a session at its current cursor, on demand."""
        with self._lock:
            ms = self._require_live(session_id)
            digest, created = self._checkpoint(ms)
            return {
                "session": session_id,
                "interactions": ms.cursor,
                "digest": digest,
                "blob_created": created,
            }

    def _checkpoint(self, ms: ManagedSession) -> tuple[str, bool]:
        driver = None
        if ms.mode == "driven":
            assert ms.interpreter is not None
            driver = {"shadow": list(ms.interpreter.states), "cursor": ms.cursor}
            if ms.trail is not None:
                driver["trail"] = ms.trail.hex()
        return self.store.put_snapshot(
            ms.id,
            ms.cursor,
            ms.session.snapshot(),
            effective=ms.effective,
            driver=driver,
        )

    def fork(
        self,
        session_id: str,
        *,
        at: int | None = None,
        child_id: str | None = None,
    ) -> dict:
        """A new session branched from a checkpoint of ``session_id``.

        ``at=None`` forks at the parent's current cursor (checkpointing
        it first if needed); otherwise ``at`` must name a stored
        checkpoint.  Parent and child share the checkpoint blob — the
        store's content addressing makes the fork O(1) in storage.
        """
        with self._lock:
            parent = self._require_live(session_id)
            if at is None:
                at = parent.cursor
                self._checkpoint(parent)
            ckpt = self.store.get_snapshot(session_id, at)
            if ckpt is None:
                stored = [
                    s.interactions for s in self.store.list_snapshots(session_id)
                ]
                raise SimulationError(
                    f"session {session_id!r} has no checkpoint at {at}; "
                    f"stored checkpoints: {stored}"
                )
            cid = child_id or f"s-{uuid.uuid4().hex[:12]}"
            child = self._build(cid, dict(parent.config))
            self._restore_into(child, ckpt)
            self.store.create_session(
                cid,
                engine=child.engine,
                protocol=child.protocol.name,
                fingerprint=protocol_fingerprint(child.protocol),
                config=child.config,
                mode=child.mode,
                parent_id=session_id,
                parent_interactions=at,
                cursor=child.cursor,
                effective=child.effective,
            )
            self.store.put_snapshot(
                cid,
                ckpt.interactions,
                ckpt.payload,
                effective=ckpt.effective,
                driver=ckpt.driver,
                digest=ckpt.digest,
            )
            self.store.update_session(cid, status=child.status.value)
            self._live[cid] = child
            self._update_gauge()
            return self.status(cid)

    def rewind(self, session_id: str, at: int) -> dict:
        """Time-travel a session back to a stored checkpoint.

        ``at`` must be exactly checkpointed (use :meth:`snapshots` to
        see what is).  After a rewind the session re-advances normally —
        driven sessions bit-identically, free sessions continuing the
        exact RNG stream the checkpoint captured.
        """
        with self._lock:
            ms = self._require_live(session_id)
            ckpt = self.store.get_snapshot(session_id, at)
            if ckpt is None:
                stored = [
                    s.interactions for s in self.store.list_snapshots(session_id)
                ]
                raise SimulationError(
                    f"session {session_id!r} has no checkpoint at {at}; "
                    f"stored checkpoints: {stored}"
                )
            self._restore_into(ms, ckpt)
            self.store.update_session(
                session_id,
                status=ms.status.value,
                cursor=ms.cursor,
                effective=ms.effective,
            )
            self._update_gauge()
            return self.status(session_id)

    def _restore_into(self, ms: ManagedSession, ckpt: Checkpoint) -> None:
        ms.session.restore(ckpt.payload)
        ms.cursor = ckpt.interactions
        ms.effective = ckpt.effective
        ms.result_record = None
        if ms.mode == "driven":
            if ckpt.driver is None:
                raise SimulationError(
                    f"checkpoint at {ckpt.interactions} has no driver sidecar; "
                    "it was not taken from a driven session"
                )
            ms.interpreter = ReferenceInterpreter(ms.protocol, ckpt.driver["shadow"])
            trail = ckpt.driver.get("trail")
            if trail is not None:
                ms.trail = bytes.fromhex(trail)
            else:
                ms.trail = b"" if ckpt.interactions == 0 else None
            assert ms.schedule is not None
            if ms.cursor >= len(ms.schedule.pairs):
                ms.status = self._driven_terminal_status(ms)
            else:
                ms.status = SessionStatus.RUNNING
        else:
            ms.status = ms.session.status

    # ------------------------------------------------------------------
    # Introspection and results
    # ------------------------------------------------------------------
    def _require_live(self, session_id: str) -> ManagedSession:
        ms = self._live.get(session_id)
        if ms is None:
            if self.store.get_session(session_id) is not None:
                self.attach(session_id)
                return self._live[session_id]
            raise SimulationError(f"no session {session_id!r}")
        return ms

    def sessions(self) -> list[dict]:
        """Status payloads for every non-deleted stored session."""
        with self._lock:
            return [self.status(row.id) for row in self.store.list_sessions()]

    def status(self, session_id: str) -> dict:
        """One session's full status (the GET /sessions/<id> payload)."""
        with self._lock:
            ms = self._live.get(session_id)
            row = self.store.session_header(session_id)
            status = ms.status.value if ms is not None else row["status"]
            cursor = ms.cursor if ms is not None else row["cursor"]
            effective = ms.effective if ms is not None else row["effective"]
            payload = {
                "id": session_id,
                "engine": row["engine"],
                "protocol": row["protocol"],
                "mode": row["mode"],
                "status": status,
                "interactions": cursor,
                "effective": effective,
                "live": ms is not None,
                # The stored text is the canonical encoding config_digest
                # hashes, so a driven session's schedule is never decoded.
                "config_digest": hashlib.sha256(row["config"].encode()).hexdigest(),
                "lineage": [
                    {"id": ancestor, "forked_at": fork_at}
                    for ancestor, fork_at in self.store.lineage(session_id)
                ],
                "snapshots": len(self.store.list_snapshots(session_id)),
            }
            if ms is not None and ms.mode == "driven":
                assert ms.schedule is not None
                payload["schedule_length"] = len(ms.schedule.pairs)
            return payload

    def snapshots(self, session_id: str) -> list[dict]:
        """The stored checkpoint index for one session."""
        with self._lock:
            self.store.require_session(session_id)
            return [
                {
                    "interactions": s.interactions,
                    "effective": s.effective,
                    "digest": s.digest,
                    "size": s.size,
                }
                for s in self.store.list_snapshots(session_id)
            ]

    def result(self, session_id: str) -> dict:
        """The terminal :class:`SimulationResult` as a record dict.

        Free sessions return the engine session's own result; driven
        sessions return a manager-assembled result (the engine counters
        idle at zero under driven execution, so the manager's cursor is
        the interaction count).
        """
        with self._lock:
            ms = self._require_live(session_id)
            if not ms.terminal:
                raise SimulationError(
                    f"session {session_id!r} is still running; "
                    "advance it to completion first"
                )
            if ms.result_record is None:
                if ms.mode == "free":
                    ms.result_record = ms.session.result().to_record()
                else:
                    ms.result_record = self._driven_result(ms).to_record()
            return dict(ms.result_record)

    def _driven_result(self, ms: ManagedSession) -> SimulationResult:
        assert ms.schedule is not None
        final = np.asarray(ms.session.counts, dtype=np.int64)
        return SimulationResult(
            protocol=ms.protocol.name,
            n=ms.schedule.n,
            engine=ms.engine,
            interactions=ms.cursor,
            effective_interactions=ms.effective,
            converged=ms.status is SessionStatus.CONVERGED,
            silent=bool(ms.protocol.compiled.is_silent(final)),
            final_counts=final,
            group_sizes=Engine._group_sizes_or_empty(ms.protocol, final),
            tracked_milestones=[],
            elapsed=0.0,
        )

    def counts_at(self, session_id: str, t: int) -> list[int]:
        """The count vector after interaction ``t`` (driven sessions)."""
        return list(self.probe(session_id, t).session.counts)

    def probe(self, session_id: str, t: int) -> ManagedSession:
        """A scratch copy of a driven session, standing after interaction ``t``.

        Restores the nearest stored checkpoint at or before ``t`` and
        drives the schedule window forward — O(checkpoint interval) work
        instead of O(t) — with the same engine-versus-rule-listing check
        as a live advance.  The copy can be stepped further
        (:meth:`ManagedSession.step`); the live session is never
        disturbed, and nothing the copy does is stored.
        """
        with self._lock:
            scratch = self._probe_session(session_id)
            ckpt = self.store.nearest_snapshot(session_id, t)
            if ckpt is None:
                raise SimulationError(
                    f"session {session_id!r} has no checkpoint at or before {t}"
                )
            self._restore_into(scratch, ckpt)
            assert scratch.schedule is not None
            if t > len(scratch.schedule.pairs):
                raise SimulationError(
                    f"t={t} is beyond the schedule "
                    f"({len(scratch.schedule.pairs)} interactions)"
                )
            scratch.status = SessionStatus.RUNNING
            self._drive(scratch, t, checkpoint=False)
            return scratch

    def _probe_session(self, session_id: str) -> ManagedSession:
        """A scratch session for one :meth:`probe`.

        A live session lends its protocol object, parsed schedule,
        engine and checkpoint interval, so a probe neither decodes the
        stored config nor rebuilds and recompiles the protocol; only the
        engine session is new.  Otherwise the stored row is rebuilt.
        """
        live = self._live.get(session_id)
        row = None if live is not None else self.store.require_session(session_id)
        mode = (live or row).mode
        if mode != "driven":
            raise SimulationError(
                f"probes need a driven session; {session_id!r} is "
                f"mode {mode!r}"
            )
        sid = f"probe-{session_id}"
        if live is None:
            return self._build(sid, dict(row.config))
        assert live.schedule is not None
        return replace(
            live,
            id=sid,
            session=start_driven(
                live.engine, live.protocol, live.schedule.initial_counts
            ),
            interpreter=None,
            result_record=None,
        )

    def gc(self, *, keep_every: int | None = None) -> dict:
        """Garbage-collect dominated checkpoints (see the store's gc)."""
        with self._lock:
            for ms in self._live.values():
                self._checkpoint(ms)
            return self.store.gc(keep_every=keep_every)

    def _update_gauge(self) -> None:
        telemetry = get_telemetry()
        if telemetry.enabled:
            active = sum(1 for ms in self._live.values() if not ms.terminal)
            telemetry.gauge("sessiond.sessions.active").set(active)
