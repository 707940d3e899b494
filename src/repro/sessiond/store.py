"""Content-addressed snapshot store with session lineage.

One SQLite database holds every session the daemon has ever hosted and
every checkpoint those sessions took.  The layout separates *where* a
checkpoint sits from *what* it contains:

``sessions``
    One row per session: engine, protocol (name + behaviour
    fingerprint), the full creation config as canonical JSON, lifecycle
    status, the current interaction cursor, and — for forked sessions —
    the parent session id plus the interaction count the fork was taken
    at.  The parent columns are the lineage model: walking them
    reconstructs the fork tree of any debugging investigation.

``snapshots``
    One row per checkpoint, keyed by ``(session_id, interactions)``.
    The row stores only a digest — the content address of the payload.

``blobs``
    The payloads, keyed by SHA-256 digest of the serialized
    :class:`~repro.engine.session.SessionState`
    (:meth:`~repro.engine.session.SessionState.digest`).  Two
    checkpoints with identical state — a fork and its parent at the
    fork point, or a rewound session re-checkpointing an interaction
    count it already visited — share one blob.

Concurrency follows the campaign store through the shared
:class:`~repro.core.sqliteutil.WalStore`: WAL journaling, one
connection per thread, writes serialized per connection.  Deleting a
session drops its own checkpoints, and deleting or replacing a
checkpoint drops its blob unless another checkpoint shares it;
:meth:`gc` deletes *dominated* snapshots — checkpoints that are
neither a session's first or latest, nor a fork base some child was cut
from, nor on the caller's keep-grid — then sweeps every orphaned blob
in the store and reports how many bytes the store shrank by.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import time
from dataclasses import dataclass

from ..core.errors import SimulationError
from ..core.sqliteutil import WalStore
from ..engine.session import SessionState
from ..obs.telemetry import get_telemetry

__all__ = [
    "SnapshotStore",
    "SessionRow",
    "SnapshotRow",
    "Checkpoint",
    "SESSION_STATUSES",
]

SESSION_STATUSES = ("running", "converged", "exhausted", "halted", "deleted")

#: SQLite page cache per connection, in KiB (SQLite's default is about
#: 2 MB).  The store's reads are point lookups and one-row blob
#: fetches, so a small cache costs no speed and keeps a busy daemon's
#: memory flat.
_PAGE_CACHE_KIB = 256

_SCHEMA = """
CREATE TABLE IF NOT EXISTS sessions (
    id                  TEXT PRIMARY KEY,
    engine              TEXT NOT NULL,
    protocol            TEXT NOT NULL,
    fingerprint         TEXT NOT NULL,
    config              TEXT NOT NULL,
    mode                TEXT NOT NULL CHECK (mode IN ('free', 'driven')),
    status              TEXT NOT NULL DEFAULT 'running'
                        CHECK (status IN
                        ('running', 'converged', 'exhausted', 'halted', 'deleted')),
    cursor              INTEGER NOT NULL DEFAULT 0,
    effective           INTEGER NOT NULL DEFAULT 0,
    parent_id           TEXT,
    parent_interactions INTEGER,
    created_at          REAL NOT NULL,
    updated_at          REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS sessions_by_parent ON sessions (parent_id);
CREATE TABLE IF NOT EXISTS snapshots (
    session_id   TEXT NOT NULL,
    interactions INTEGER NOT NULL,
    effective    INTEGER NOT NULL DEFAULT 0,
    digest       TEXT NOT NULL,
    driver       TEXT,
    created_at   REAL NOT NULL,
    PRIMARY KEY (session_id, interactions)
);
CREATE INDEX IF NOT EXISTS snapshots_by_digest ON snapshots (digest);
CREATE TABLE IF NOT EXISTS blobs (
    digest     TEXT PRIMARY KEY,
    payload    BLOB NOT NULL,
    size       INTEGER NOT NULL,
    created_at REAL NOT NULL
);
"""


@dataclass(slots=True)
class SessionRow:
    """One row of the ``sessions`` table, config already decoded."""

    id: str
    engine: str
    protocol: str
    fingerprint: str
    config: dict
    mode: str
    status: str
    cursor: int
    effective: int
    parent_id: str | None
    parent_interactions: int | None
    created_at: float
    updated_at: float

    @classmethod
    def _from_row(cls, row: sqlite3.Row) -> "SessionRow":
        return cls(
            id=row["id"],
            engine=row["engine"],
            protocol=row["protocol"],
            fingerprint=row["fingerprint"],
            config=json.loads(row["config"]),
            mode=row["mode"],
            status=row["status"],
            cursor=row["cursor"],
            effective=row["effective"],
            parent_id=row["parent_id"],
            parent_interactions=row["parent_interactions"],
            created_at=row["created_at"],
            updated_at=row["updated_at"],
        )


@dataclass(slots=True)
class SnapshotRow:
    """One checkpoint: position, content address, and payload size."""

    session_id: str
    interactions: int
    effective: int
    digest: str
    size: int
    created_at: float


@dataclass(slots=True)
class Checkpoint:
    """One materialized checkpoint, ready to restore.

    ``interactions``/``effective`` are the manager's coordinates (for
    driven sessions the engine payload keeps its own counters at zero).
    ``driver`` is the manager's replay sidecar — for driven sessions,
    the per-agent state-index shadow the schedule interpreter needs to
    resume mid-run; None for free-running sessions.
    """

    interactions: int
    effective: int
    payload: bytes
    driver: dict | None
    #: Content address of ``payload`` (its blob key).
    digest: str


class SnapshotStore(WalStore):
    """Durable home of sessions and their checkpoints (thread-safe)."""

    @staticmethod
    def _ensure_schema(conn: sqlite3.Connection) -> None:
        conn.executescript(_SCHEMA)
        conn.execute(f"PRAGMA cache_size = -{_PAGE_CACHE_KIB}")

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def create_session(
        self,
        session_id: str,
        *,
        engine: str,
        protocol: str,
        fingerprint: str,
        config: dict,
        mode: str,
        parent_id: str | None = None,
        parent_interactions: int | None = None,
        cursor: int = 0,
        effective: int = 0,
    ) -> None:
        now = time.time()
        with self._write() as conn:
            try:
                conn.execute(
                    "INSERT INTO sessions (id, engine, protocol, fingerprint, "
                    "config, mode, cursor, effective, parent_id, "
                    "parent_interactions, created_at, updated_at) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        session_id, engine, protocol, fingerprint,
                        json.dumps(config, sort_keys=True), mode,
                        cursor, effective, parent_id, parent_interactions,
                        now, now,
                    ),
                )
            except sqlite3.IntegrityError:
                raise SimulationError(
                    f"session id {session_id!r} already exists in {self.path}"
                ) from None

    def get_session(self, session_id: str) -> SessionRow | None:
        row = self._query(
            "SELECT * FROM sessions WHERE id = ?", (session_id,)
        ).fetchone()
        return None if row is None else SessionRow._from_row(row)

    def require_session(self, session_id: str) -> SessionRow:
        return SessionRow._from_row(self.session_header(session_id, "*"))

    def session_header(
        self,
        session_id: str,
        columns: str = "engine, protocol, mode, status, cursor, effective, config",
    ) -> sqlite3.Row:
        """A live session's row, undecoded: by default its scalar columns
        and its config text, the canonical JSON it was created with."""
        row = self._query(
            f"SELECT {columns} FROM sessions WHERE id = ?", (session_id,)
        ).fetchone()
        if row is None or row["status"] == "deleted":
            raise SimulationError(f"no session {session_id!r} in {self.path}")
        return row

    def list_sessions(self, *, include_deleted: bool = False) -> list[SessionRow]:
        sql = "SELECT * FROM sessions"
        if not include_deleted:
            sql += " WHERE status != 'deleted'"
        sql += " ORDER BY created_at, id"
        return [SessionRow._from_row(r) for r in self._query(sql).fetchall()]

    def update_session(
        self,
        session_id: str,
        *,
        status: str | None = None,
        cursor: int | None = None,
        effective: int | None = None,
    ) -> None:
        sets, args = ["updated_at = ?"], [time.time()]
        if status is not None:
            if status not in SESSION_STATUSES:
                raise SimulationError(
                    f"unknown session status {status!r}; "
                    f"expected one of {SESSION_STATUSES}"
                )
            sets.append("status = ?")
            args.append(status)
        if cursor is not None:
            sets.append("cursor = ?")
            args.append(cursor)
        if effective is not None:
            sets.append("effective = ?")
            args.append(effective)
        args.append(session_id)
        with self._write() as conn:
            conn.execute(
                f"UPDATE sessions SET {', '.join(sets)} WHERE id = ?", tuple(args)
            )

    def delete_session(self, session_id: str, *, drop_snapshots: bool = True) -> None:
        """Tombstone a session (its row stays for lineage queries).

        With ``drop_snapshots`` its checkpoints go too, and with them
        the blobs that only they referenced, in the same transaction.
        The cost of a delete follows the session, not the store: orphans
        from elsewhere (a store written before deletes and re-checkpoints
        dropped their own blobs) wait for :meth:`gc`.
        """
        with self._write() as conn:
            conn.execute(
                "UPDATE sessions SET status = 'deleted', updated_at = ? "
                "WHERE id = ?",
                (time.time(), session_id),
            )
            if drop_snapshots:
                digests = [
                    row["digest"] for row in conn.execute(
                        "SELECT DISTINCT digest FROM snapshots WHERE session_id = ?",
                        (session_id,),
                    )
                ]
                conn.execute(
                    "DELETE FROM snapshots WHERE session_id = ?", (session_id,)
                )
                self._drop_unreferenced(conn, digests)

    def children(self, session_id: str) -> list[SessionRow]:
        """Sessions forked from ``session_id`` (one lineage hop)."""
        rows = self._query(
            "SELECT * FROM sessions WHERE parent_id = ? ORDER BY created_at, id",
            (session_id,),
        ).fetchall()
        return [SessionRow._from_row(r) for r in rows]

    def lineage(self, session_id: str) -> list[tuple[str, int | None]]:
        """Ancestry chain ``[(ancestor_id, fork_interactions), ...]``,
        oldest first, ending with the session itself.  Each entry's
        second element is the parent checkpoint that session was cut
        from (None for a root session)."""
        chain: list[tuple[str, int | None]] = []
        seen: set[str] = set()
        current: str | None = session_id
        while current is not None and current not in seen:
            seen.add(current)
            row = self._query(
                "SELECT parent_id, parent_interactions FROM sessions WHERE id = ?",
                (current,),
            ).fetchone()
            if row is None:
                chain.append((current, None))
                break
            chain.append((current, row["parent_interactions"]))
            current = row["parent_id"]
        chain.reverse()
        return chain

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def put_snapshot(
        self,
        session_id: str,
        interactions: int,
        state: SessionState | bytes,
        *,
        effective: int = 0,
        driver: dict | None = None,
        digest: str | None = None,
    ) -> tuple[str, bool]:
        """Store one checkpoint; returns ``(digest, blob_created)``.

        ``interactions``/``effective`` are the *manager's* coordinates —
        for driven sessions the engine payload keeps its own counters at
        zero, so the row is the authority on where a checkpoint sits.
        ``driver`` rides in the row rather than the blob so the blob
        stays a pure content-addressed :class:`SessionState`.
        Re-checkpointing the same ``(session_id, interactions)`` slot
        replaces the pointer row (a rewound-and-replayed session visits
        the same coordinates again) and drops the old blob unless another
        checkpoint shares it; the blob is written only when its digest is
        new.  ``digest`` skips hashing when the caller already
        holds the payload's content address (a fork passes the digest of
        the checkpoint it copies).
        """
        if isinstance(state, SessionState):
            payload = state.to_bytes()
            if digest is None:
                # SessionState.digest() would encode the state again.
                digest = hashlib.sha256(payload).hexdigest()
        else:
            payload = bytes(state)
            if digest is None:
                digest = SessionState.from_bytes(payload).digest()
        now = time.time()
        with self._write() as conn:
            cur = conn.execute(
                "INSERT OR IGNORE INTO blobs (digest, payload, size, created_at) "
                "VALUES (?, ?, ?, ?)",
                (digest, payload, len(payload), now),
            )
            blob_created = cur.rowcount == 1
            replaced = conn.execute(
                "SELECT digest FROM snapshots "
                "WHERE session_id = ? AND interactions = ?",
                (session_id, interactions),
            ).fetchone()
            conn.execute(
                "INSERT OR REPLACE INTO snapshots "
                "(session_id, interactions, effective, digest, driver, created_at) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                (
                    session_id, interactions, effective, digest,
                    None if driver is None else json.dumps(driver), now,
                ),
            )
            if replaced is not None and replaced["digest"] != digest:
                self._drop_unreferenced(conn, [replaced["digest"]])
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.counter("sessiond.snapshots.stored").inc()
            if blob_created:
                telemetry.counter("sessiond.snapshots.bytes").inc(len(payload))
        return digest, blob_created

    _SNAPSHOT_SELECT = (
        "SELECT s.interactions AS interactions, s.effective AS effective, "
        "s.driver AS driver, s.digest AS digest, b.payload AS payload "
        "FROM snapshots s "
        "JOIN blobs b ON b.digest = s.digest WHERE s.session_id = ?"
    )

    @staticmethod
    def _checkpoint(row: sqlite3.Row | None) -> Checkpoint | None:
        if row is None:
            return None
        return Checkpoint(
            interactions=row["interactions"],
            effective=row["effective"],
            payload=bytes(row["payload"]),
            driver=None if row["driver"] is None else json.loads(row["driver"]),
            digest=row["digest"],
        )

    def get_snapshot(
        self, session_id: str, interactions: int
    ) -> Checkpoint | None:
        """The checkpoint stored exactly at ``interactions``."""
        row = self._query(
            self._SNAPSHOT_SELECT + " AND s.interactions = ?",
            (session_id, interactions),
        ).fetchone()
        return self._checkpoint(row)

    def nearest_snapshot(
        self, session_id: str, interactions: int
    ) -> Checkpoint | None:
        """The latest checkpoint at or before ``interactions``."""
        row = self._query(
            self._SNAPSHOT_SELECT
            + " AND s.interactions <= ? ORDER BY s.interactions DESC LIMIT 1",
            (session_id, interactions),
        ).fetchone()
        return self._checkpoint(row)

    def latest_snapshot(self, session_id: str) -> Checkpoint | None:
        row = self._query(
            self._SNAPSHOT_SELECT + " ORDER BY s.interactions DESC LIMIT 1",
            (session_id,),
        ).fetchone()
        return self._checkpoint(row)

    def checkpoint_trails(self, session_id: str) -> dict[int, str]:
        """``interactions -> trail`` over one driven session's checkpoints.

        The trail is the outcome digest in the driver sidecar; a
        checkpoint stored without one is left out.
        """
        rows = self._query(
            "SELECT interactions, json_extract(driver, '$.trail') AS trail "
            "FROM snapshots WHERE session_id = ? "
            "AND json_extract(driver, '$.trail') IS NOT NULL",
            (session_id,),
        ).fetchall()
        return {r["interactions"]: r["trail"] for r in rows}

    def list_snapshots(self, session_id: str) -> list[SnapshotRow]:
        rows = self._query(
            "SELECT s.session_id AS session_id, s.interactions AS interactions, "
            "s.effective AS effective, s.digest AS digest, b.size AS size, "
            "s.created_at AS created_at "
            "FROM snapshots s JOIN blobs b ON b.digest = s.digest "
            "WHERE s.session_id = ? ORDER BY s.interactions",
            (session_id,),
        ).fetchall()
        return [
            SnapshotRow(
                session_id=r["session_id"],
                interactions=r["interactions"],
                effective=r["effective"],
                digest=r["digest"],
                size=r["size"],
                created_at=r["created_at"],
            )
            for r in rows
        ]

    # ------------------------------------------------------------------
    # Accounting and GC
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Store-wide accounting: rows, distinct blobs, payload bytes."""
        sessions = self._query(
            "SELECT COUNT(*) AS c FROM sessions WHERE status != 'deleted'"
        ).fetchone()["c"]
        snapshots = self._query("SELECT COUNT(*) AS c FROM snapshots").fetchone()["c"]
        row = self._query(
            "SELECT COUNT(*) AS c, COALESCE(SUM(size), 0) AS b FROM blobs"
        ).fetchone()
        return {
            "sessions": sessions,
            "snapshots": snapshots,
            "blobs": row["c"],
            "bytes": row["b"],
        }

    def _protected(self, session_id: str) -> set[int]:
        """Interaction counts GC must keep for one session: its first
        and latest checkpoints plus every fork base of a child."""
        keep: set[int] = set()
        row = self._query(
            "SELECT MIN(interactions) AS lo, MAX(interactions) AS hi "
            "FROM snapshots WHERE session_id = ?",
            (session_id,),
        ).fetchone()
        if row["lo"] is not None:
            keep.add(row["lo"])
            keep.add(row["hi"])
        for child in self._query(
            "SELECT parent_interactions FROM sessions "
            "WHERE parent_id = ? AND status != 'deleted' "
            "AND parent_interactions IS NOT NULL",
            (session_id,),
        ).fetchall():
            keep.add(child["parent_interactions"])
        return keep

    def gc(self, *, keep_every: int | None = None, vacuum: bool = True) -> dict[str, int]:
        """Delete dominated snapshots and orphaned blobs.

        A snapshot is *dominated* when nothing can need it: it is not a
        session's first or latest checkpoint, not the fork base of a
        live child, and — when ``keep_every`` is given — not on the
        coarse keep-grid (``interactions % keep_every == 0``).  With
        ``keep_every=None``, everything except the protected set goes.
        Snapshots of deleted sessions are always dominated.  Returns
        removal counts and ``bytes_freed``.
        """
        if keep_every is not None and keep_every < 1:
            raise SimulationError(f"keep_every must be positive, got {keep_every}")
        before = self.stats()["bytes"]
        removed_snapshots = 0
        with self._write() as conn:
            for row in self._query(
                "SELECT DISTINCT session_id FROM snapshots"
            ).fetchall():
                sid = row["session_id"]
                session = self.get_session(sid)
                if session is None or session.status == "deleted":
                    cur = conn.execute(
                        "DELETE FROM snapshots WHERE session_id = ?", (sid,)
                    )
                    removed_snapshots += cur.rowcount
                    continue
                keep = self._protected(sid)
                for snap in self._query(
                    "SELECT interactions FROM snapshots WHERE session_id = ?",
                    (sid,),
                ).fetchall():
                    at = snap["interactions"]
                    if at in keep:
                        continue
                    if keep_every is not None and at % keep_every == 0:
                        continue
                    conn.execute(
                        "DELETE FROM snapshots "
                        "WHERE session_id = ? AND interactions = ?",
                        (sid, at),
                    )
                    removed_snapshots += 1
            # The store-wide sweep: every blob no checkpoint references.
            removed_blobs = conn.execute(
                "DELETE FROM blobs WHERE digest NOT IN "
                "(SELECT DISTINCT digest FROM snapshots)"
            ).rowcount
        if vacuum:
            self._conn().execute("VACUUM")
        after = self.stats()["bytes"]
        return {
            "snapshots_removed": removed_snapshots,
            "blobs_removed": removed_blobs,
            "bytes_freed": before - after,
        }

    @staticmethod
    def _drop_unreferenced(conn: sqlite3.Connection, digests: list[str]) -> None:
        """Delete the blobs among ``digests`` that no checkpoint references
        (one ``snapshots_by_digest`` lookup each)."""
        conn.executemany(
            "DELETE FROM blobs WHERE digest = ? AND NOT EXISTS "
            "(SELECT 1 FROM snapshots WHERE snapshots.digest = blobs.digest)",
            [(d,) for d in digests],
        )
