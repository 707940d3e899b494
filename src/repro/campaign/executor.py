"""Campaign executor: drain pending jobs with retries and checkpointing.

The executor is crash-first software: every state transition is
committed to the store before and after work happens, so killing the
process at any instant loses at most the in-flight simulations (their
jobs return to ``pending`` on the next start via
:meth:`CampaignStore.recover_running`).  A ``KeyboardInterrupt`` is the
polite version of the same thing — in-flight jobs are checkpointed
back to ``pending`` synchronously before the executor returns.

Jobs run their seeds through :func:`~repro.engine.runner.run_seeds`.
``workers=1`` executes in-process through :func:`execute_spec_resumable`,
which binds the store to that loop's by-work checkpointing: whenever
``checkpoint_interactions`` interactions have run since the last
commit, the trials finished since then and the in-flight trial's
snapshot are committed to the store together, so a killed executor
loses at most that much work (plus the trial in flight), resumes
*mid-trial* and still produces bit-identical results.  ``workers>1``
fans :func:`execute_spec` calls out over a ``ProcessPoolExecutor``, one
job per submission, with the parent committing results — worker
processes never touch SQLite, so pooled jobs checkpoint only at job
granularity.
"""

from __future__ import annotations

import json
import time
import traceback
from dataclasses import dataclass, field
from collections.abc import Callable
from functools import partial

from ..core.rng import spawn_seed_sequences
from ..engine.registry import engine_for_scheduler
from ..engine.runner import (
    Checkpointing,
    TrialSet,
    finalize_trials,
    run_seeds,
    trial_fingerprint,
)
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
    return _execute(JobSpec.from_dict(spec_dict))


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

    :func:`execute_spec` with by-work
    :class:`~repro.engine.runner.Checkpointing` bound to the store:
    :meth:`CampaignStore.save_checkpoint` receives the records of the
    trials finished since the last commit (one appended row each) and
    the in-flight snapshot, and the job's stored checkpoint, if any, is
    the resume point, so completed trials are not re-run and the
    interrupted one restarts *mid-flight*.  A job whose whole work stays
    below ``checkpoint_interactions`` commits nothing here;
    :meth:`CampaignStore.mark_done` stores its record.  Because sliced
    session execution is bit-identical to straight execution, the
    payload is the one an uninterrupted :func:`execute_spec` run
    produces.  ``on_slice(trial_index, interactions)`` fires after each
    mid-trial checkpoint — the kill/resume tests' interruption hook.
    """
    ckpt = store.load_checkpoint(digest, tenant=tenant)
    checkpoint = Checkpointing(
        partial(store.save_checkpoint, digest, tenant=tenant),
        checkpoint_interactions,
        on_slice=on_slice,
        **(ckpt or {}),
    )
    payload = _execute(JobSpec.from_dict(spec_dict), checkpoint)
    payload["resumed"] = ckpt is not None
    return payload


def _execute(spec: JobSpec, checkpoint: Checkpointing | None = None) -> dict:
    """Run a job's seeds through the trial loop and build its payload."""
    protocol = spec.build_protocol()
    engine = engine_for_scheduler(spec.engine, spec.scheduler)
    t0 = time.perf_counter()
    results = run_seeds(
        engine,
        protocol,
        spec.n,
        spawn_seed_sequences(spec.seed, spec.trials),
        max_interactions=spec.max_interactions,
        track_state=spec.track_state,
        checkpoint=checkpoint,
    )
    ts = finalize_trials(
        protocol,
        engine.name,
        results,
        seed=spec.seed,
        require_convergence=spec.max_interactions is None,
        elapsed=time.perf_counter() - t0,
    )
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
        "wall_time": time.perf_counter() - t0,
    }


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


def _settle(
    store: CampaignStore,
    report: CampaignReport,
    retries: int,
    progress: Callable[[str], None] | None,
    sink: "ShardWriter | None",
    job: JobRecord,
    outcome: dict | BaseException,
) -> None:
    """Commit a job's payload, or re-queue or fail it after an error."""
    if isinstance(outcome, BaseException):
        error = "".join(traceback.format_exception_only(outcome)).strip()
        if job.attempts <= retries:
            store.reset_to_pending(job.digest, tenant=job.tenant)
            report.retried += 1
            message = f"retry {job.attempts}/{retries + 1} {job.spec.label()}: {error}"
        else:
            store.mark_failed(job.digest, error, tenant=job.tenant)
            report.failed += 1
            report.errors.append(f"{job.digest[:12]}: {error}")
            message = f"FAILED {job.spec.label()}: {error}"
    else:
        _commit_success(
            store, job.digest, outcome, job.tenant, sink=sink, spec=job.spec
        )
        report.executed += 1
        resumed = outcome.get("resumed", False)
        if resumed:
            report.resumed += 1
        tag = " (resumed)" if resumed else ""
        message = f"done {job.spec.label()} in {outcome['wall_time']:.2f}s{tag}"
    if progress is not None:
        progress(message)


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
    settle = partial(_settle, store, report, retries, progress, sink)
    t0 = time.perf_counter()
    try:
        if workers <= 1:
            _drain_serial(store, settle, report, max_jobs, checkpoint_interactions)
        else:
            _drain_pool(store, settle, report, max_jobs, workers)
    except KeyboardInterrupt:
        report.interrupted = True
        if progress is not None:
            progress("interrupted — pending jobs checkpointed, re-run to resume")
    report.wall_time = time.perf_counter() - t0
    return report


def _drain_serial(
    store: CampaignStore,
    settle: Callable[[JobRecord, dict | BaseException], None],
    report: CampaignReport,
    max_jobs: int | None,
    checkpoint_interactions: int,
) -> None:
    while max_jobs is None or report.executed < max_jobs:
        job = store.claim_next()
        if job is None:
            return
        try:
            outcome = execute_spec_resumable(
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
            outcome = exc
        settle(job, outcome)


def _drain_pool(
    store: CampaignStore,
    settle: Callable[[JobRecord, dict | BaseException], None],
    report: CampaignReport,
    max_jobs: int | None,
    workers: int,
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
                    settle(job, future.exception() or future.result())
    except KeyboardInterrupt:
        # Checkpoint everything in flight before propagating: those
        # jobs were claimed (status running) but their results are lost.
        for future, job in in_flight.items():
            future.cancel()
            store.reset_to_pending(job.digest, tenant=job.tenant)
        raise


def fetch_trial_set(store: CampaignStore, spec: JobSpec) -> TrialSet | None:
    """Reconstruct the TrialSet of a done job (None when absent)."""
    record = store.result_record(spec.digest)
    return None if record is None else TrialSet.from_record(record)
