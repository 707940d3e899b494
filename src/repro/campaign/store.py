"""SQLite-backed job store: durable campaign state across invocations.

One database holds every job ever submitted, keyed by the spec's
content digest within a **tenant namespace**.  Jobs move
``pending -> running -> done | failed``; ``done`` rows carry the full
per-trial record (for bit-identical cache hits) plus compact summary
statistics and provenance (git revision, package version, wall time).

Concurrency model: WAL journaling allows any number of concurrent
readers alongside one writer; every thread gets its own connection
(SQLite connections are not thread-safe), and claims are serialized
with ``BEGIN IMMEDIATE`` so two executors never run the same job.
A second table, ``trial_cache``, memoizes raw ``run_trials`` calls by
their :func:`~repro.engine.runner.trial_fingerprint` — the hook that
makes plain ``repro-experiments`` sweeps incremental even when they
were never submitted as campaign jobs.  ``checkpoints`` and
``checkpoint_trials`` hold each running job's partial progress — one
row per finished trial's record, plus the next trial index and the
in-flight trial's serialized
:class:`~repro.engine.session.SessionState` — so a killed executor
resumes mid-trial instead of restarting the job from scratch.  A trial
boundary appends one row, so a checkpoint costs the same at trial 99
as at trial 1.

Tenancy: every table carries a ``tenant`` column (auth-less
namespacing for the multi-tenant service); the ``"default"``
tenant is what every pre-tenant API call operates on, so existing
digests, cache keys and call sites are untouched.

Older databases are migrated in place on first open: pre-tenant files
(schema v1) land under the default tenant with their bytes unchanged,
and v2 files, which kept each job's finished trials as one JSON list,
get one ``checkpoint_trials`` row per list entry.  A v1 file goes
through both steps in the same transaction.
"""

from __future__ import annotations

import json
import re
import sqlite3
import time
from dataclasses import dataclass

from .. import __version__ as _PACKAGE_VERSION
from ..core.errors import CampaignError
from ..core.sqliteutil import WalStore
from ..obs.trace import git_rev
from .spec import JobSpec

__all__ = [
    "CampaignStore",
    "JobRecord",
    "StoreTrialCache",
    "JOB_STATUSES",
    "DEFAULT_TENANT",
]

JOB_STATUSES = ("pending", "running", "done", "failed")

#: The namespace all pre-tenant call sites read and write.
DEFAULT_TENANT = "default"

#: Schema generation recorded in ``PRAGMA user_version``.  0 is a
#: fresh (or pre-versioning v1) database; 2 added tenants; 3 stores one
#: row per finished trial in ``checkpoint_trials``.
_SCHEMA_VERSION = 3

_TENANT_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")

_JOB_TABLES = """
CREATE TABLE IF NOT EXISTS jobs (
    tenant          TEXT NOT NULL DEFAULT 'default',
    digest          TEXT NOT NULL,
    spec            TEXT NOT NULL,
    status          TEXT NOT NULL DEFAULT 'pending'
                    CHECK (status IN ('pending', 'running', 'done', 'failed')),
    attempts        INTEGER NOT NULL DEFAULT 0,
    error           TEXT,
    summary         TEXT,
    record          TEXT,
    campaign        TEXT,
    git_rev         TEXT,
    package_version TEXT,
    wall_time       REAL,
    created_at      REAL NOT NULL,
    started_at      REAL,
    finished_at     REAL,
    PRIMARY KEY (tenant, digest)
);
CREATE INDEX IF NOT EXISTS jobs_by_tenant_status ON jobs (tenant, status, created_at);
CREATE INDEX IF NOT EXISTS jobs_by_status ON jobs (status, created_at);
CREATE INDEX IF NOT EXISTS jobs_by_campaign ON jobs (campaign);
CREATE TABLE IF NOT EXISTS trial_cache (
    tenant     TEXT NOT NULL DEFAULT 'default',
    key        TEXT NOT NULL,
    record     TEXT NOT NULL,
    created_at REAL NOT NULL,
    PRIMARY KEY (tenant, key)
);
"""

_CHECKPOINT_TABLES = """
CREATE TABLE IF NOT EXISTS checkpoints (
    tenant      TEXT NOT NULL DEFAULT 'default',
    digest      TEXT NOT NULL,
    trial_index INTEGER NOT NULL,
    session     BLOB,
    updated_at  REAL NOT NULL,
    PRIMARY KEY (tenant, digest)
);
CREATE TABLE IF NOT EXISTS checkpoint_trials (
    tenant TEXT NOT NULL,
    digest TEXT NOT NULL,
    trial  INTEGER NOT NULL,
    record TEXT NOT NULL,
    PRIMARY KEY (tenant, digest, trial)
) WITHOUT ROWID;
"""

_SCHEMA = _JOB_TABLES + _CHECKPOINT_TABLES

#: v1 tables (digest-keyed, no tenant column) copied verbatim into the
#: v2 layout under the default tenant.  Column lists are explicit so a
#: copy never silently reorders.  The v2 ``checkpoints`` table, which
#: kept every finished trial in one ``completed`` JSON list, is spelled
#: out here because the v2→v3 step reads it.
_MIGRATE_V1_TO_V2 = """
ALTER TABLE jobs RENAME TO jobs_v1;
ALTER TABLE trial_cache RENAME TO trial_cache_v1;
ALTER TABLE checkpoints RENAME TO checkpoints_v1;
DROP INDEX IF EXISTS jobs_by_status;
DROP INDEX IF EXISTS jobs_by_campaign;
""" + _JOB_TABLES + """
CREATE TABLE checkpoints (
    tenant      TEXT NOT NULL DEFAULT 'default',
    digest      TEXT NOT NULL,
    trial_index INTEGER NOT NULL,
    completed   TEXT NOT NULL,
    session     BLOB,
    updated_at  REAL NOT NULL,
    PRIMARY KEY (tenant, digest)
);
INSERT INTO jobs (tenant, digest, spec, status, attempts, error, summary,
                  record, campaign, git_rev, package_version, wall_time,
                  created_at, started_at, finished_at)
    SELECT 'default', digest, spec, status, attempts, error, summary,
           record, campaign, git_rev, package_version, wall_time,
           created_at, started_at, finished_at FROM jobs_v1;
INSERT INTO trial_cache (tenant, key, record, created_at)
    SELECT 'default', key, record, created_at FROM trial_cache_v1;
INSERT INTO checkpoints (tenant, digest, trial_index, completed, session,
                         updated_at)
    SELECT 'default', digest, trial_index, completed, session, updated_at
    FROM checkpoints_v1;
DROP TABLE jobs_v1;
DROP TABLE trial_cache_v1;
DROP TABLE checkpoints_v1;
"""

#: The SQL half of v2→v3; :func:`_migrate_v2_to_v3` splits each
#: ``completed`` list into ``checkpoint_trials`` rows before the old
#: table is dropped.
_MIGRATE_V2_TO_V3 = """
ALTER TABLE checkpoints RENAME TO checkpoints_v2;
""" + _CHECKPOINT_TABLES + """
INSERT INTO checkpoints (tenant, digest, trial_index, session, updated_at)
    SELECT tenant, digest, trial_index, session, updated_at
    FROM checkpoints_v2;
"""


def _run_script(conn: sqlite3.Connection, script: str) -> None:
    """Run ``;``-separated statements inside the open transaction.

    ``executescript`` would implicitly commit first and break the
    migration's atomicity.
    """
    for stmt in script.split(";"):
        if stmt.strip():
            conn.execute(stmt)


def _columns(conn: sqlite3.Connection, table: str) -> list[str]:
    return [r[1] for r in conn.execute(f"PRAGMA table_info({table})")]


def _schema_generation(conn: sqlite3.Connection) -> int:
    """The layout's schema version, read from its structure.

    A v1 ``jobs`` table has no ``tenant`` column; a v2 ``checkpoints``
    table still has ``completed``.  A fresh file reads as current.
    """
    jobs = _columns(conn, "jobs")
    if jobs and "tenant" not in jobs:
        return 1
    if "completed" in _columns(conn, "checkpoints"):
        return 2
    return _SCHEMA_VERSION


def _insert_trials(
    conn: sqlite3.Connection,
    tenant: str,
    digest: str,
    first: int,
    records: list[dict],
) -> None:
    """Store ``records`` as the rows of trials ``first``, ``first + 1``, …"""
    conn.executemany(
        "INSERT OR REPLACE INTO checkpoint_trials (tenant, digest, trial, record) "
        "VALUES (?, ?, ?, ?)",
        [
            (tenant, digest, first + i, json.dumps(record))
            for i, record in enumerate(records)
        ],
    )


def _migrate_v2_to_v3(conn: sqlite3.Connection) -> None:
    """Split every v2 ``completed`` list into per-trial rows.

    Each record is re-encoded by ``json.dumps`` — the encoder
    :meth:`CampaignStore.save_checkpoint` uses — not by SQLite's
    ``json_each``, which re-renders floats.
    """
    _run_script(conn, _MIGRATE_V2_TO_V3)
    rows = conn.execute(
        "SELECT tenant, digest, trial_index, completed FROM checkpoints_v2"
    ).fetchall()
    for tenant, digest, trial_index, completed in rows:
        records = json.loads(completed)
        _insert_trials(conn, tenant, digest, trial_index - len(records), records)
    conn.execute("DROP TABLE checkpoints_v2")


def _delete_checkpoint(conn: sqlite3.Connection, tenant: str, digest: str) -> None:
    args = (tenant, digest)
    conn.execute("DELETE FROM checkpoints WHERE tenant = ? AND digest = ?", args)
    conn.execute(
        "DELETE FROM checkpoint_trials WHERE tenant = ? AND digest = ?", args
    )


def _check_tenant(tenant: str) -> str:
    """Validate a tenant name (it lands in SQL rows and URLs)."""
    if not isinstance(tenant, str) or not _TENANT_RE.match(tenant):
        raise CampaignError(
            f"invalid tenant {tenant!r}: expected 1-64 characters from "
            "[A-Za-z0-9._-]"
        )
    return tenant


@dataclass(slots=True)
class JobRecord:
    """One row of the ``jobs`` table, spec already decoded."""

    digest: str
    spec: JobSpec
    status: str
    attempts: int
    error: str | None
    summary: dict | None
    campaign: str | None
    git_rev: str | None
    package_version: str | None
    wall_time: float | None
    created_at: float
    started_at: float | None
    finished_at: float | None
    tenant: str = DEFAULT_TENANT

    @classmethod
    def _from_row(cls, row: sqlite3.Row) -> "JobRecord":
        return cls(
            digest=row["digest"],
            spec=JobSpec.from_json(row["spec"]),
            status=row["status"],
            attempts=row["attempts"],
            error=row["error"],
            summary=json.loads(row["summary"]) if row["summary"] else None,
            campaign=row["campaign"],
            git_rev=row["git_rev"],
            package_version=row["package_version"],
            wall_time=row["wall_time"],
            created_at=row["created_at"],
            started_at=row["started_at"],
            finished_at=row["finished_at"],
            tenant=row["tenant"],
        )


class StoreTrialCache:
    """:class:`~repro.engine.runner.TrialCache` view over the store.

    Installed with :func:`~repro.engine.runner.use_trial_cache`, it
    makes every ``run_trials`` call inside an experiment sweep check
    the database first — the mechanism behind incremental
    ``repro-experiments all`` re-runs.  Scoped to one tenant; the
    default tenant preserves every pre-tenant cache key.
    """

    def __init__(self, store: "CampaignStore", tenant: str = DEFAULT_TENANT) -> None:
        self._store = store
        self.tenant = _check_tenant(tenant)
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> dict | None:
        row = self._store._query(
            "SELECT record FROM trial_cache WHERE tenant = ? AND key = ?",
            (self.tenant, key),
        ).fetchone()
        if row is None:
            self.misses += 1
            return None
        self.hits += 1
        return json.loads(row["record"])

    def put(self, key: str, record: dict) -> None:
        with self._store._write() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO trial_cache "
                "(tenant, key, record, created_at) VALUES (?, ?, ?, ?)",
                (self.tenant, key, json.dumps(record), time.time()),
            )


class CampaignStore(WalStore):
    """Persistent job store; one instance may be shared across threads."""

    @staticmethod
    def _ensure_schema(conn: sqlite3.Connection) -> None:
        """Create the v3 schema, migrating a v1 or v2 database in place.

        The old layout is recognized structurally (see
        :func:`_schema_generation`); every step up to v3 runs inside one
        immediate transaction, so concurrent openers serialize behind
        it, the check-then-migrate pair cannot race, and a failure
        leaves the file wholly at its old version.
        """
        if _schema_generation(conn) < _SCHEMA_VERSION:
            conn.execute("BEGIN IMMEDIATE")
            try:
                # Re-check under the write lock: another process may
                # have migrated while we waited.
                generation = _schema_generation(conn)
                if generation == 1:
                    _run_script(conn, _MIGRATE_V1_TO_V2)
                if generation <= 2:
                    _migrate_v2_to_v3(conn)
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
        else:
            conn.executescript(_SCHEMA)
        conn.execute(f"PRAGMA user_version={_SCHEMA_VERSION}")

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        spec: JobSpec,
        *,
        campaign: str | None = None,
        tenant: str = DEFAULT_TENANT,
    ) -> tuple[str, bool]:
        """Record a job; returns ``(digest, created)``.

        Submission is idempotent by ``(tenant, digest)``: re-submitting
        an existing job (any status) changes nothing and returns
        ``created=False`` — that is the job-level cache hit.  A spec
        naming an unknown engine or protocol is refused (see
        :meth:`JobSpec.check_runnable`).
        """
        spec.check_runnable()
        digest = spec.digest
        _check_tenant(tenant)
        with self._write() as conn:
            cur = conn.execute(
                "INSERT OR IGNORE INTO jobs (tenant, digest, spec, campaign, created_at) "
                "VALUES (?, ?, ?, ?, ?)",
                (tenant, digest, spec.to_json(), campaign, time.time()),
            )
        return digest, cur.rowcount == 1

    def submit_many(
        self,
        specs: list[JobSpec],
        *,
        campaign: str | None = None,
        tenant: str = DEFAULT_TENANT,
    ) -> dict[str, int]:
        """Submit a batch; returns ``{"created": .., "existing": .., "done": ..}``.

        Every spec is checked before any is written, so a batch with one
        unrunnable spec records nothing.
        """
        for spec in specs:
            spec.check_runnable()
        created = existing = done = 0
        for spec in specs:
            digest, was_new = self.submit(spec, campaign=campaign, tenant=tenant)
            if was_new:
                created += 1
            else:
                existing += 1
                row = self._query(
                    "SELECT status FROM jobs WHERE tenant = ? AND digest = ?",
                    (tenant, digest),
                ).fetchone()
                if row is not None and row["status"] == "done":
                    done += 1
        return {"created": created, "existing": existing, "done": done}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def claim_next(self, *, tenant: str | None = None) -> JobRecord | None:
        """Atomically move the oldest pending job to ``running``.

        ``tenant=None`` (the default) claims across all tenants —
        workers drain one global queue; pass a tenant to drain one
        namespace only.
        """
        conn = self._conn()
        where = "status = 'pending'"
        args: tuple = ()
        if tenant is not None:
            _check_tenant(tenant)
            where += " AND tenant = ?"
            args = (tenant,)
        try:
            conn.execute("BEGIN IMMEDIATE")
            row = conn.execute(
                f"SELECT * FROM jobs WHERE {where} "
                "ORDER BY created_at, tenant, digest LIMIT 1",
                args,
            ).fetchone()
            if row is None:
                conn.execute("COMMIT")
                return None
            conn.execute(
                "UPDATE jobs SET status = 'running', started_at = ?, "
                "attempts = attempts + 1 WHERE tenant = ? AND digest = ?",
                (time.time(), row["tenant"], row["digest"]),
            )
            conn.execute("COMMIT")
        except sqlite3.Error:
            conn.execute("ROLLBACK")
            raise
        record = JobRecord._from_row(row)
        record.status = "running"
        record.attempts += 1
        return record

    def mark_done(
        self,
        digest: str,
        *,
        summary: dict,
        record: dict,
        wall_time: float,
        tenant: str = DEFAULT_TENANT,
    ) -> None:
        with self._write() as conn:
            conn.execute(
                "UPDATE jobs SET status = 'done', summary = ?, record = ?, "
                "wall_time = ?, finished_at = ?, error = NULL, "
                "git_rev = ?, package_version = ? WHERE tenant = ? AND digest = ?",
                (
                    json.dumps(summary),
                    json.dumps(record),
                    wall_time,
                    time.time(),
                    git_rev(),
                    _PACKAGE_VERSION,
                    tenant,
                    digest,
                ),
            )
            _delete_checkpoint(conn, tenant, digest)

    def mark_failed(
        self, digest: str, error: str, *, tenant: str = DEFAULT_TENANT
    ) -> None:
        with self._write() as conn:
            conn.execute(
                "UPDATE jobs SET status = 'failed', error = ?, finished_at = ? "
                "WHERE tenant = ? AND digest = ?",
                (error, time.time(), tenant, digest),
            )
            _delete_checkpoint(conn, tenant, digest)

    def reset_to_pending(
        self, digest: str, *, tenant: str = DEFAULT_TENANT
    ) -> None:
        """Checkpoint one job back to the queue (Ctrl-C, retry)."""
        with self._write() as conn:
            conn.execute(
                "UPDATE jobs SET status = 'pending', started_at = NULL "
                "WHERE tenant = ? AND digest = ?",
                (tenant, digest),
            )

    def recover_running(self) -> int:
        """Re-queue jobs left ``running`` by a killed process.

        Call at executor startup: any ``running`` row necessarily
        belongs to a process that died mid-job (live executors reset
        their claims on the way out).  Spans all tenants.
        """
        with self._write() as conn:
            cur = conn.execute(
                "UPDATE jobs SET status = 'pending', started_at = NULL "
                "WHERE status = 'running'"
            )
        return cur.rowcount

    # ------------------------------------------------------------------
    # Mid-trial checkpoints
    # ------------------------------------------------------------------
    def save_checkpoint(
        self,
        digest: str,
        *,
        trial_index: int,
        completed: list[dict],
        session: bytes | None,
        tenant: str = DEFAULT_TENANT,
    ) -> None:
        """Persist a job's partial progress (idempotent per digest).

        ``trial_index`` is the trial in flight (or next to start);
        ``completed`` holds the :meth:`SimulationResult.to_record` dicts
        of trials ``trial_index - len(completed)`` … ``trial_index - 1``
        — typically the one trial just finished, or none mid-trial.
        Rows already stored for earlier trials are kept, so a caller
        passing every finished trial stores the same state as one
        passing only the new ones.  ``session`` is the in-flight
        trial's ``SessionState.to_bytes()`` snapshot (None at a trial
        boundary).  The new trial rows and the job's checkpoint row
        commit in one transaction, so a resume always picks up the
        latest durable state.
        """
        with self._write() as conn:
            _insert_trials(
                conn, tenant, digest, trial_index - len(completed), completed
            )
            conn.execute(
                "INSERT OR REPLACE INTO checkpoints "
                "(tenant, digest, trial_index, session, updated_at) "
                "VALUES (?, ?, ?, ?, ?)",
                (tenant, digest, trial_index, session, time.time()),
            )

    def load_checkpoint(
        self, digest: str, *, tenant: str = DEFAULT_TENANT
    ) -> dict | None:
        """The saved progress of a job, or None when it never checkpointed.

        Returns ``{"trial_index": int, "completed": list[dict],
        "session": bytes | None}``; ``completed`` holds the stored
        records of the trials before ``trial_index``, in trial order.
        """
        row = self._query(
            "SELECT trial_index, session FROM checkpoints "
            "WHERE tenant = ? AND digest = ?",
            (tenant, digest),
        ).fetchone()
        if row is None:
            return None
        trials = self._query(
            "SELECT record FROM checkpoint_trials "
            "WHERE tenant = ? AND digest = ? AND trial < ? ORDER BY trial",
            (tenant, digest, row["trial_index"]),
        )
        return {
            "trial_index": row["trial_index"],
            "completed": [json.loads(t["record"]) for t in trials],
            "session": row["session"],
        }

    def clear_checkpoint(
        self, digest: str, *, tenant: str = DEFAULT_TENANT
    ) -> None:
        with self._write() as conn:
            _delete_checkpoint(conn, tenant, digest)

    def checkpoint_count(self) -> int:
        row = self._query("SELECT COUNT(*) AS c FROM checkpoints").fetchone()
        return row["c"]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(
        self, digest: str, *, tenant: str = DEFAULT_TENANT
    ) -> JobRecord | None:
        row = self._query(
            "SELECT * FROM jobs WHERE tenant = ? AND digest = ?",
            (tenant, digest),
        ).fetchone()
        return None if row is None else JobRecord._from_row(row)

    def result_record(
        self, digest: str, *, tenant: str = DEFAULT_TENANT
    ) -> dict | None:
        """The full :meth:`TrialSet.to_record` payload of a done job."""
        row = self._query(
            "SELECT record FROM jobs "
            "WHERE tenant = ? AND digest = ? AND status = 'done'",
            (tenant, digest),
        ).fetchone()
        return None if row is None or row["record"] is None else json.loads(row["record"])

    def counts(self, *, tenant: str | None = None) -> dict[str, int]:
        """Job counts by status (every status present, zeros included).

        ``tenant=None`` aggregates across all tenants.
        """
        out = {status: 0 for status in JOB_STATUSES}
        if tenant is None:
            cur = self._query(
                "SELECT status, COUNT(*) AS c FROM jobs GROUP BY status"
            )
        else:
            _check_tenant(tenant)
            cur = self._query(
                "SELECT status, COUNT(*) AS c FROM jobs WHERE tenant = ? "
                "GROUP BY status",
                (tenant,),
            )
        for row in cur:
            out[row["status"]] = row["c"]
        return out

    def tenants(self) -> list[str]:
        """Every tenant with at least one job, sorted."""
        cur = self._query("SELECT DISTINCT tenant FROM jobs ORDER BY tenant")
        return [row["tenant"] for row in cur.fetchall()]

    def list_jobs(
        self,
        *,
        status: str | None = None,
        limit: int = 100,
        tenant: str | None = None,
    ) -> list[JobRecord]:
        if status is not None and status not in JOB_STATUSES:
            raise CampaignError(f"unknown status {status!r}; expected one of {JOB_STATUSES}")
        where = []
        args: list[object] = []
        if status is not None:
            where.append("status = ?")
            args.append(status)
        if tenant is not None:
            _check_tenant(tenant)
            where.append("tenant = ?")
            args.append(tenant)
        clause = f"WHERE {' AND '.join(where)} " if where else ""
        cur = self._query(
            f"SELECT * FROM jobs {clause}"
            "ORDER BY created_at, tenant, digest LIMIT ?",
            tuple(args) + (limit,),
        )
        return [JobRecord._from_row(row) for row in cur.fetchall()]

    def trial_cache_size(self, *, tenant: str | None = None) -> int:
        if tenant is None:
            row = self._query("SELECT COUNT(*) AS c FROM trial_cache").fetchone()
        else:
            _check_tenant(tenant)
            row = self._query(
                "SELECT COUNT(*) AS c FROM trial_cache WHERE tenant = ?",
                (tenant,),
            ).fetchone()
        return row["c"]

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def gc(
        self,
        *,
        failed: bool = True,
        done_older_than: float | None = None,
        vacuum: bool = True,
    ) -> dict[str, int]:
        """Delete failed jobs and (optionally) old done jobs.

        ``done_older_than`` is an age threshold in seconds applied to
        ``finished_at``; trial-cache entries older than the same
        threshold are pruned too.  Checkpoints whose job row is gone are
        pruned with their trial rows.  Returns per-category deletion
        counts.
        """
        removed = {"failed": 0, "done": 0, "trial_cache": 0, "checkpoints": 0}
        with self._write() as conn:
            if failed:
                cur = conn.execute("DELETE FROM jobs WHERE status = 'failed'")
                removed["failed"] = cur.rowcount
            cur = conn.execute(
                "DELETE FROM checkpoints WHERE NOT EXISTS "
                "(SELECT 1 FROM jobs WHERE jobs.tenant = checkpoints.tenant "
                "AND jobs.digest = checkpoints.digest)"
            )
            removed["checkpoints"] = cur.rowcount
            conn.execute(
                "DELETE FROM checkpoint_trials WHERE NOT EXISTS "
                "(SELECT 1 FROM checkpoints WHERE "
                "checkpoints.tenant = checkpoint_trials.tenant "
                "AND checkpoints.digest = checkpoint_trials.digest)"
            )
            if done_older_than is not None:
                cutoff = time.time() - done_older_than
                cur = conn.execute(
                    "DELETE FROM jobs WHERE status = 'done' AND finished_at < ?",
                    (cutoff,),
                )
                removed["done"] = cur.rowcount
                cur = conn.execute(
                    "DELETE FROM trial_cache WHERE created_at < ?", (cutoff,)
                )
                removed["trial_cache"] = cur.rowcount
        if vacuum:
            self._conn().execute("VACUUM")
        return removed

    def trial_cache(self, tenant: str = DEFAULT_TENANT) -> StoreTrialCache:
        """A runner-compatible cache view over this store (one tenant)."""
        return StoreTrialCache(self, tenant)
