"""Campaign executor: drain pending jobs with retries and checkpointing.

The executor is crash-first software: every state transition is
committed to the store before and after work happens, so killing the
process at any instant loses at most the in-flight simulations (their
jobs return to ``pending`` on the next start via
:meth:`CampaignStore.recover_running`).  A ``KeyboardInterrupt`` is the
polite version of the same thing — in-flight jobs are checkpointed
back to ``pending`` synchronously before the executor returns.

Workers: ``workers=1`` executes in-process through the resumable
session path — each trial runs as an
:class:`~repro.engine.session.EngineSession`, and whenever
``checkpoint_interactions`` interactions have run since the last
commit, the trials finished since then and the in-flight trial's
snapshot are committed to the store together, so a killed executor
loses at most that much work (plus the trial in flight), resumes
*mid-trial* and still produces bit-identical results.  ``workers>1``
fans jobs out over a ``ProcessPoolExecutor``, one job per submission,
with the parent committing results — worker processes never touch
SQLite, so pooled jobs checkpoint only at job granularity.
"""

from __future__ import annotations

import json
import time
import traceback
from dataclasses import dataclass, field
from collections.abc import Callable

from ..core.rng import spawn_seed_sequences
from ..engine.base import SimulationResult
from ..engine.registry import engine_for_scheduler
from ..engine.runner import TrialSet, finalize_trials, trial_fingerprint
from ..engine.session import SessionState
from .spec import JobSpec
from .store import DEFAULT_TENANT, CampaignStore, JobRecord

if False:  # pragma: no cover — typing-only import, avoids io cost at startup
    from ..io.columnar import ShardWriter

__all__ = [
    "CampaignReport",
    "execute_spec",
    "execute_spec_resumable",
    "fetch_trial_set",
    "run_campaign",
    "trial_sink_rows",
    "DEFAULT_CHECKPOINT_INTERACTIONS",
]

#: Default interactions of work between two checkpoint commits of the
#: resumable path.  Small enough that even a jump-chain engine (which
#: covers millions of scheduler interactions per second by skipping
#: nulls) checkpoints several times a second on big populations; large
#: enough that a quick job — a whole Figure 3 point — commits nothing
#: before ``mark_done``.
DEFAULT_CHECKPOINT_INTERACTIONS = 1_000_000


def execute_spec(spec_dict: dict) -> dict:
    """Run one job spec to completion; module-level so pools can pickle.

    Returns a JSON-safe payload: the full trial record, the summary
    statistics, the runner-level cache key (so the parent can populate
    ``trial_cache`` without rebuilding the protocol), and wall time.
    """
    spec = JobSpec.from_dict(spec_dict)
    protocol = spec.build_protocol()
    t0 = time.perf_counter()
    from ..engine.runner import run_trials

    ts = run_trials(
        protocol,
        spec.n,
        trials=spec.trials,
        engine=spec.engine,
        seed=spec.seed,
        max_interactions=spec.max_interactions,
        track_state=spec.track_state,
        scheduler=spec.scheduler,
        require_convergence=spec.max_interactions is None,
        cache=_NO_CACHE,
    )
    wall = time.perf_counter() - t0
    return _payload(spec, protocol, ts, wall)


def _payload(spec: JobSpec, protocol, ts: TrialSet, wall: float) -> dict:
    key = trial_fingerprint(
        protocol,
        spec.n,
        trials=spec.trials,
        engine=ts.engine,
        seed=spec.seed,
        max_interactions=spec.max_interactions,
        track_state=spec.track_state,
        scheduler=spec.scheduler,
    )
    return {
        "record": ts.to_record(),
        "summary": ts.stats(),
        "trial_key": key,
        "wall_time": wall,
    }


def execute_spec_resumable(
    spec_dict: dict,
    store: CampaignStore,
    *,
    digest: str,
    checkpoint_interactions: int = DEFAULT_CHECKPOINT_INTERACTIONS,
    on_slice: Callable[[int, int], None] | None = None,
    tenant: str = DEFAULT_TENANT,
) -> dict:
    """Run one job spec with mid-trial checkpointing; resume if possible.

    The session-based twin of :func:`execute_spec`: each trial is an
    :class:`~repro.engine.session.EngineSession`, checkpointed by work.
    Sessions advance in slices that end when ``checkpoint_interactions``
    scheduler interactions have run since the last commit; then the
    records of the trials finished since that commit (one appended row
    each, never the whole history) and the in-flight session's snapshot
    commit together, or just the records when the budget runs out at a
    trial boundary.  A ``KeyboardInterrupt`` commits the finished trials
    before it propagates; a job whose whole work stays below the budget
    commits nothing here, and :meth:`CampaignStore.mark_done` stores its
    record.  When a checkpoint for ``digest`` already exists, execution
    picks up where it was saved: completed trials are not re-run and the
    interrupted trial restarts *mid-flight* from its snapshot.  Because
    sliced session execution is bit-identical to straight execution,
    the payload is byte-for-byte the one an uninterrupted
    :func:`execute_spec` run would have produced.

    ``on_slice(trial_index, interactions)`` fires after each mid-trial
    checkpoint — the deterministic interruption hook the kill/resume
    tests use.
    """
    spec = JobSpec.from_dict(spec_dict)
    protocol = spec.build_protocol()
    engine = engine_for_scheduler(spec.engine, spec.scheduler)
    t0 = time.perf_counter()

    ckpt = store.load_checkpoint(digest, tenant=tenant)
    completed: list[dict] = ckpt["completed"] if ckpt else []
    resume_index = ckpt["trial_index"] if ckpt else 0
    session_bytes: bytes | None = ckpt["session"] if ckpt else None

    seeds = spawn_seed_sequences(spec.seed, spec.trials)
    kwargs = dict(
        max_interactions=spec.max_interactions,
        track_state=spec.track_state,
    )

    start_batch = getattr(engine, "start_batch", None)
    if start_batch is not None:
        # Vectorized engines simulate every trial in one batch session;
        # the whole batch is the checkpoint unit (trial_index stays 0).
        session = start_batch(protocol, spec.n, seeds=list(seeds), **kwargs)
        if session_bytes is not None:
            session.restore(SessionState.from_bytes(session_bytes))
        while not session.advance(checkpoint_interactions).terminal:
            store.save_checkpoint(
                digest,
                trial_index=0,
                completed=[],
                session=session.snapshot().to_bytes(),
                tenant=tenant,
            )
            if on_slice is not None:
                on_slice(0, session.interactions)
        results = session.results()
    else:
        results = [SimulationResult.from_record(r) for r in completed]
        # Trials whose records the store holds, and interactions run
        # since the last commit: the finished trials and the in-flight
        # snapshot commit when that work reaches checkpoint_interactions.
        saved = len(results)
        unsaved = 0
        try:
            for t in range(len(results), spec.trials):
                session = engine.start(protocol, spec.n, seed=seeds[t], **kwargs)
                if session_bytes is not None and t == resume_index:
                    session.restore(SessionState.from_bytes(session_bytes))
                session_bytes = None
                while True:
                    before = session.interactions
                    status = session.advance(checkpoint_interactions - unsaved)
                    unsaved += session.interactions - before
                    if status.terminal:
                        break
                    # The slice ran out of unsaved budget mid-trial.
                    saved = _save_progress(
                        store, digest, results, saved,
                        session.snapshot().to_bytes(), tenant,
                    )
                    unsaved = 0
                    if on_slice is not None:
                        on_slice(t, session.interactions)
                results.append(session.result())
                if unsaved >= checkpoint_interactions:
                    saved = _save_progress(store, digest, results, saved, None, tenant)
                    unsaved = 0
        except KeyboardInterrupt:
            # Keep every finished trial; the trial in flight restarts
            # from its seed (or from its last snapshot when no trial
            # finished since that was taken).
            if saved < len(results):
                _save_progress(store, digest, results, saved, None, tenant)
            raise

    ts = finalize_trials(
        protocol,
        engine.name,
        results,
        seed=spec.seed,
        require_convergence=spec.max_interactions is None,
        elapsed=time.perf_counter() - t0,
    )
    payload = _payload(spec, protocol, ts, time.perf_counter() - t0)
    payload["resumed"] = ckpt is not None
    return payload


def _save_progress(
    store: CampaignStore,
    digest: str,
    results: list[SimulationResult],
    saved: int,
    session: bytes | None,
    tenant: str,
) -> int:
    """Commit the trials finished since the first ``saved`` ones, with
    the in-flight trial's snapshot; returns the new saved count."""
    store.save_checkpoint(
        digest,
        trial_index=len(results),
        completed=[result.to_record() for result in results[saved:]],
        session=session,
        tenant=tenant,
    )
    return len(results)


class _NullCache:
    """Sentinel cache that never hits nor stores.

    Passed explicitly so a process-wide :func:`use_trial_cache` context
    cannot double-report job executions as runner-level hits — the
    executor owns store population itself.
    """

    def get(self, key: str) -> None:
        return None

    def put(self, key: str, record: dict) -> None:
        return None


_NO_CACHE = _NullCache()


@dataclass(slots=True)
class CampaignReport:
    """What one :func:`run_campaign` drain accomplished."""

    executed: int = 0
    failed: int = 0
    retried: int = 0
    recovered: int = 0
    resumed: int = 0
    cache_hits: int = 0
    interrupted: bool = False
    wall_time: float = 0.0
    errors: list[str] = field(default_factory=list)

    def summary(self) -> str:
        parts = [
            f"executed={self.executed}",
            f"cache_hits={self.cache_hits}",
            f"failed={self.failed}",
        ]
        if self.retried:
            parts.append(f"retried={self.retried}")
        if self.recovered:
            parts.append(f"recovered={self.recovered}")
        if self.resumed:
            parts.append(f"resumed={self.resumed}")
        if self.interrupted:
            parts.append("INTERRUPTED (checkpointed; re-run to resume)")
        parts.append(f"wall={self.wall_time:.2f}s")
        return " ".join(parts)


def trial_sink_rows(spec: JobSpec, payload: dict) -> list[dict]:
    """Flatten one job payload into per-trial scalar rows for a sink.

    One row per trial, scalars only (the columnar layer rejects nested
    values): job identity (digest, protocol, parameters, engine, seed,
    scheduler) plus the per-trial outcome.  The ``k`` column is pulled
    out of the protocol parameters because every partition-family
    analysis groups on it.
    """
    digest = spec.digest
    record = payload["record"]
    rows = []
    for index, result in enumerate(record["results"]):
        rows.append(
            {
                "digest": digest,
                "protocol": spec.protocol,
                "k": spec.params.get("k"),
                "n": result["n"],
                "engine": record["engine"],
                "scheduler": spec.scheduler,
                "seed": spec.seed,
                "trial": index,
                "interactions": result["interactions"],
                "effective_interactions": result["effective_interactions"],
                "converged": result["converged"],
                "silent": result["silent"],
                "elapsed": result["elapsed"],
            }
        )
    return rows


def _commit_success(
    store: CampaignStore,
    digest: str,
    payload: dict,
    tenant: str = DEFAULT_TENANT,
    *,
    sink: "ShardWriter | None" = None,
    spec: JobSpec | None = None,
) -> None:
    # mark_done commits last: a done job is never run again, so anything
    # written after it would be lost for good by a crash in between.
    # Everything before it is idempotent, so such a crash only re-runs
    # the job.
    if sink is not None and spec is not None:
        # Keyed by digest: a retried or resumed drain re-commits the
        # same job without duplicating its trial rows in the shards.
        sink.append_keyed(digest, trial_sink_rows(spec, payload))
    # One encoding serves the trial cache and the job row.
    record = json.dumps(payload["record"])
    if payload.get("trial_key"):
        store.trial_cache(tenant).put(payload["trial_key"], record)
    store.mark_done(
        digest,
        summary=payload["summary"],
        record=record,
        wall_time=payload["wall_time"],
        tenant=tenant,
    )


def _handle_failure(
    store: CampaignStore,
    job: JobRecord,
    error: str,
    retries: int,
    report: CampaignReport,
    progress: Callable[[str], None] | None,
) -> None:
    if job.attempts <= retries:
        store.reset_to_pending(job.digest, tenant=job.tenant)
        report.retried += 1
        if progress is not None:
            progress(f"retry {job.attempts}/{retries + 1} {job.spec.label()}: {error}")
    else:
        store.mark_failed(job.digest, error, tenant=job.tenant)
        report.failed += 1
        report.errors.append(f"{job.digest[:12]}: {error}")
        if progress is not None:
            progress(f"FAILED {job.spec.label()}: {error}")


def run_campaign(
    store: CampaignStore,
    *,
    workers: int = 1,
    retries: int = 1,
    max_jobs: int | None = None,
    progress: Callable[[str], None] | None = None,
    checkpoint_interactions: int = DEFAULT_CHECKPOINT_INTERACTIONS,
    sink: "ShardWriter | None" = None,
) -> CampaignReport:
    """Drain the store's pending queue; returns a :class:`CampaignReport`.

    Parameters
    ----------
    workers:
        Process-pool width; ``1`` runs in-process through the resumable
        session path (mid-trial checkpoints).
    retries:
        Extra attempts before a job is marked ``failed`` (a job runs at
        most ``retries + 1`` times across all invocations).
    max_jobs:
        Stop after this many completions (None = drain everything).
    progress:
        Optional ``callable(message)`` for per-job reporting.
    checkpoint_interactions:
        Interactions of work between two checkpoint commits of the
        serial path, which hold the trials finished since the last
        commit and the in-flight trial's snapshot.  Ignored when
        ``workers > 1``.
    sink:
        Optional :class:`~repro.io.columnar.ShardWriter`; every
        completed job streams one row per trial into it, keyed by the
        job digest so re-drains stay idempotent.  The sink is flushed
        per job — a killed drain loses no committed trial rows.
    """
    report = CampaignReport()
    report.recovered = store.recover_running()
    report.cache_hits = store.counts()["done"]
    t0 = time.perf_counter()
    try:
        if workers <= 1:
            _drain_serial(
                store, retries, max_jobs, progress, report,
                checkpoint_interactions, sink,
            )
        else:
            _drain_pool(
                store, workers, retries, max_jobs, progress, report, sink
            )
    except KeyboardInterrupt:
        report.interrupted = True
        if progress is not None:
            progress("interrupted — pending jobs checkpointed, re-run to resume")
    report.wall_time = time.perf_counter() - t0
    return report


def _drain_serial(
    store: CampaignStore,
    retries: int,
    max_jobs: int | None,
    progress: Callable[[str], None] | None,
    report: CampaignReport,
    checkpoint_interactions: int = DEFAULT_CHECKPOINT_INTERACTIONS,
    sink: "ShardWriter | None" = None,
) -> None:
    while max_jobs is None or report.executed < max_jobs:
        job = store.claim_next()
        if job is None:
            return
        try:
            payload = execute_spec_resumable(
                job.spec.canonical(),
                store,
                digest=job.digest,
                checkpoint_interactions=checkpoint_interactions,
                tenant=job.tenant,
            )
        except KeyboardInterrupt:
            # The job goes back to pending; its checkpoint row survives,
            # so the next drain resumes it mid-trial.
            store.reset_to_pending(job.digest, tenant=job.tenant)
            raise
        except Exception as exc:  # noqa: BLE001 — any job error is recorded
            _handle_failure(
                store, job, _format_error(exc), retries, report, progress
            )
            continue
        _commit_success(
            store, job.digest, payload, job.tenant, sink=sink, spec=job.spec
        )
        report.executed += 1
        if payload.get("resumed"):
            report.resumed += 1
        if progress is not None:
            tag = " (resumed)" if payload.get("resumed") else ""
            progress(
                f"done {job.spec.label()} in {payload['wall_time']:.2f}s{tag}"
            )


def _drain_pool(
    store: CampaignStore,
    workers: int,
    retries: int,
    max_jobs: int | None,
    progress: Callable[[str], None] | None,
    report: CampaignReport,
    sink: "ShardWriter | None" = None,
) -> None:
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    in_flight: dict = {}
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            while True:
                while len(in_flight) < workers and (
                    max_jobs is None or report.executed + len(in_flight) < max_jobs
                ):
                    job = store.claim_next()
                    if job is None:
                        break
                    future = pool.submit(execute_spec, job.spec.canonical())
                    in_flight[future] = job
                if not in_flight:
                    return
                finished, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                for future in finished:
                    job = in_flight.pop(future)
                    exc = future.exception()
                    if exc is not None:
                        _handle_failure(
                            store, job, _format_error(exc), retries, report, progress
                        )
                        continue
                    payload = future.result()
                    _commit_success(
                        store, job.digest, payload, job.tenant,
                        sink=sink, spec=job.spec,
                    )
                    report.executed += 1
                    if progress is not None:
                        progress(
                            f"done {job.spec.label()} in {payload['wall_time']:.2f}s"
                        )
    except KeyboardInterrupt:
        # Checkpoint everything in flight before propagating: those
        # jobs were claimed (status running) but their results are lost.
        for future, job in in_flight.items():
            future.cancel()
            store.reset_to_pending(job.digest, tenant=job.tenant)
        raise


def _format_error(exc: BaseException) -> str:
    tb = traceback.format_exception_only(type(exc), exc)
    return "".join(tb).strip()


def fetch_trial_set(store: CampaignStore, spec: JobSpec) -> TrialSet | None:
    """Reconstruct the TrialSet of a done job (None when absent)."""
    record = store.result_record(spec.digest)
    return None if record is None else TrialSet.from_record(record)
