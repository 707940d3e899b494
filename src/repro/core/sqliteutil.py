"""The per-thread WAL connection discipline both SQLite stores share.

The campaign store and the session snapshot store each keep one SQLite
file that many handler threads read and write.  :class:`WalStore` owns
the connection side for both: one connection per thread (WAL
journaling, ``synchronous=NORMAL``, a 30 s busy timeout), the store's
schema hook run on every new connection, and a ``close()`` after which
every method raises :class:`~repro.core.errors.StoreClosedError`
instead of silently opening a fresh connection.
"""

from __future__ import annotations

import sqlite3
import threading
from pathlib import Path

from .errors import StoreClosedError

__all__ = ["WalStore"]


class WalStore:
    """A SQLite file reached through one WAL connection per thread.

    Subclasses implement :meth:`_ensure_schema`, which runs on every new
    connection before it is handed out.  The constructor opens the
    first connection eagerly, so the schema exists before any handler
    thread starts.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._local = threading.local()
        self._conns: list[sqlite3.Connection] = []
        self._conns_lock = threading.Lock()
        self._closed = False
        self._conn()

    @staticmethod
    def _ensure_schema(conn: sqlite3.Connection) -> None:
        raise NotImplementedError

    def _closed_error(self) -> StoreClosedError:
        name = type(self).__name__
        return StoreClosedError(
            f"{name} {self.path} is closed; create a new {name} to reopen it"
        )

    def _conn(self) -> sqlite3.Connection:
        if self._closed:
            raise self._closed_error()
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = sqlite3.connect(self.path, timeout=30.0)
            try:
                conn.row_factory = sqlite3.Row
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
                conn.execute("PRAGMA busy_timeout=30000")
                self._ensure_schema(conn)
                conn.commit()
            except BaseException:
                conn.close()
                raise
            with self._conns_lock:
                if self._closed:
                    # close() ran while this connection was being set
                    # up; do not leak it past the store's lifetime.
                    conn.close()
                    raise self._closed_error()
                self._conns.append(conn)
            self._local.conn = conn
        return conn

    def _query(self, sql: str, args: tuple = ()) -> sqlite3.Cursor:
        return self._conn().execute(sql, args)

    def _write(self) -> sqlite3.Connection:
        """Context manager: one committed transaction on this thread."""
        return self._conn()

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close every registered connection; idempotent.

        After close, any store method raises
        :class:`~repro.core.errors.StoreClosedError` — including on
        handler threads that never opened a connection before, so a
        shutdown race cannot leak fresh connections.
        """
        with self._conns_lock:
            if self._closed:
                return
            self._closed = True
            for conn in self._conns:
                try:
                    conn.close()
                except sqlite3.Error:
                    pass
            self._conns.clear()
        self._local = threading.local()
