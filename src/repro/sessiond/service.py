"""Session daemon: live simulations as an HTTP resource.

A thin JSON API over one :class:`~repro.sessiond.manager.SessionManager`
so simulations outlive any single client: create a session, advance it
in slices from anywhere, fork it at a checkpoint, rewind it, bisect two
sessions against each other — all over plain HTTP.  Pure stdlib —
``ThreadingHTTPServer`` gives one thread per connection; the manager's
coarse lock serializes engine work and the store supports the handler
threads via per-thread SQLite connections and WAL mode.  A handler
thread closes its SQLite connection when its TCP connection ends, and
every response leaves in one write on a ``TCP_NODELAY`` socket.

Endpoints
---------
``GET  /healthz``                  liveness probe
``GET  /sessions``                 all stored sessions
``POST /sessions``                 create (body: session config)
``GET  /sessions/<id>``            status + config digest + lineage
``POST /sessions/<id>/advance``    body ``{"budget": 1000}`` (optional)
``POST /sessions/<id>/snapshot``   checkpoint now
``POST /sessions/<id>/fork``       body ``{"at": N}`` (optional)
``POST /sessions/<id>/rewind``     body ``{"at": N}``
``GET  /sessions/<id>/snapshots``  stored checkpoint index
``GET  /sessions/<id>/result``     terminal SimulationResult record
``DELETE /sessions/<id>``          tombstone + drop checkpoints
``POST /bisect``                   body ``{"a": id, "b": id,
                                   "reproducer_dir": path?}``
``POST /gc``                       body ``{"keep_every": N?}``
``GET  /metrics``                  service counters + telemetry

Every response is ``application/json``.  See ``docs/sessiond.md`` for
the full API table and examples.
"""

from __future__ import annotations

from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qsl, urlsplit

from ..core.errors import ReproError, SimulationError
from ..core.httputil import (
    BadRequest,
    Daemon,
    json_response,
    parse_content_length,
    parse_json_object,
    parse_limit,
)
from .bisect import bisect_divergence
from .manager import SessionManager
from .store import SnapshotStore

__all__ = ["SessionService"]


class SessionService(Daemon):
    """HTTP facade over one session manager.

    Parameters
    ----------
    store_path:
        SQLite snapshot-store path (created if missing).
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read
        :attr:`address` after :meth:`start`).
    checkpoint_interval:
        Default automatic-checkpoint cadence for new sessions.
    """

    thread_name = "sessiond-http"
    COUNTERS = {
        "requests": "sessiond.http.requests",
        "created": "sessiond.sessions.created",
        "advanced_interactions": "sessiond.sessions.advanced_interactions",
        "forks": "sessiond.sessions.forks",
        "rewinds": "sessiond.sessions.rewinds",
        "bisections": "sessiond.bisect.runs",
    }

    def __init__(
        self,
        store_path: str | Path,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        checkpoint_interval: int | None = None,
    ) -> None:
        kwargs = {}
        if checkpoint_interval is not None:
            kwargs["checkpoint_interval"] = checkpoint_interval
        self.manager = SessionManager(SnapshotStore(store_path), **kwargs)
        # Closing the manager checkpoints its live sessions, then the store.
        super().__init__(self.manager, host, port)
        self._httpd: ThreadingHTTPServer | None = None

    # ------------------------------------------------------------------
    # Lifecycle (the rest is Daemon's)
    # ------------------------------------------------------------------
    def _serve(self) -> None:
        self._httpd = ThreadingHTTPServer(self._bind, _make_handler(self))
        self._httpd.daemon_threads = True
        try:
            self._listening(self._httpd.server_address)
            self._httpd.serve_forever()
        finally:
            self._httpd.server_close()

    def _shutdown(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()

    # ------------------------------------------------------------------
    # Request handling (called from handler threads)
    # ------------------------------------------------------------------
    def handle_get(self, path: str, query: dict[str, str]) -> tuple[int, dict]:
        if path == "/healthz":
            return 200, {"ok": True, "store": str(self.manager.store.path)}
        if path == "/metrics":
            return 200, self.metrics_payload(store=self.manager.store.stats())
        limit = parse_limit(query.get("limit"), default=1000)
        if path == "/sessions":
            return 200, {"sessions": self.manager.sessions()[:limit]}
        sid, _, tail = path.removeprefix("/sessions/").partition("/")
        if path.startswith("/sessions/") and sid:
            try:
                if tail == "":
                    return 200, self.manager.status(sid)
                if tail == "snapshots":
                    return 200, {
                        "session": sid,
                        "snapshots": self.manager.snapshots(sid)[:limit],
                    }
                if tail == "result":
                    return 200, self.manager.result(sid)
            except SimulationError as exc:
                return 404, {"error": str(exc)}
        return 404, {"error": f"no route for GET {path}"}

    def handle_post(self, path: str, body: dict) -> tuple[int, dict]:
        try:
            if path == "/sessions":
                payload = self.manager.create(
                    body, session_id=body.pop("id", None)
                )
                self.count("created")
                return 200, payload
            if path == "/bisect":
                report = bisect_divergence(
                    self.manager,
                    body["a"],
                    body["b"],
                    reproducer_dir=body.get("reproducer_dir"),
                )
                self.count("bisections")
                return 200, report.to_record()
            if path == "/gc":
                return 200, self.manager.gc(keep_every=body.get("keep_every"))
            sid, _, verb = path.removeprefix("/sessions/").partition("/")
            if path.startswith("/sessions/") and sid:
                if verb == "advance":
                    payload = self.manager.advance(sid, body.get("budget"))
                    self.count("advanced_interactions", payload["advanced"])
                    return 200, payload
                if verb == "snapshot":
                    return 200, self.manager.snapshot(sid)
                if verb == "fork":
                    payload = self.manager.fork(
                        sid, at=body.get("at"), child_id=body.get("id")
                    )
                    self.count("forks")
                    return 200, payload
                if verb == "rewind":
                    if "at" not in body:
                        return 400, {"error": "rewind body needs 'at'"}
                    payload = self.manager.rewind(sid, int(body["at"]))
                    self.count("rewinds")
                    return 200, payload
            return 404, {"error": f"no route for POST {path}"}
        except KeyError as exc:
            return 400, {"error": f"missing body key {exc}"}
        except (ReproError, TypeError, ValueError) as exc:
            return 400, {"error": str(exc)}

    def handle_delete(self, path: str) -> tuple[int, dict]:
        sid = path.removeprefix("/sessions/")
        if not path.startswith("/sessions/") or not sid or "/" in sid:
            return 404, {"error": f"no route for DELETE {path}"}
        try:
            self.manager.delete(sid)
        except SimulationError as exc:
            return 404, {"error": str(exc)}
        return 200, {"deleted": sid}


def _make_handler(service: SessionService) -> type[BaseHTTPRequestHandler]:
    """A handler class bound to one service instance."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # TCP_NODELAY on every accepted socket: a small write never
        # waits for the client to acknowledge the one before it.
        disable_nagle_algorithm = True

        def log_message(self, fmt: str, *args: object) -> None:  # noqa: A003
            pass  # no access log — /metrics carries the counters

        def finish(self) -> None:
            try:
                super().finish()
            finally:
                # This thread served one TCP connection and now ends;
                # its SQLite connection would otherwise stay open until
                # the store closes.
                service.manager.store.release_connection()

        def _respond(self, code: int, payload: dict) -> None:
            self.wfile.write(json_response(code, payload, {
                "Server": self.version_string(),
                "Date": self.date_time_string(),
            }))

        def _reply(self, handle, *args) -> None:
            """Count the request and respond with what ``handle(*args)``
            returns: a :class:`BadRequest` is a 400, any other crash a 500."""
            service.count("requests")
            try:
                code, payload = handle(*args)
            except BadRequest as exc:
                code, payload = 400, {"error": str(exc)}
            except Exception as exc:  # noqa: BLE001 — surface as 500
                code, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
            self._respond(code, payload)

        def _post(self) -> tuple[int, dict]:
            try:
                length = parse_content_length(self.headers)
            except BadRequest:
                # The body length is unknowable, so close afterwards.
                self.close_connection = True
                raise
            body = parse_json_object(self.rfile.read(length))
            return service.handle_post(self.path, body)

        def do_GET(self) -> None:  # noqa: N802 — http.server API
            parts = urlsplit(self.path)
            self._reply(service.handle_get, parts.path, dict(parse_qsl(parts.query)))

        def do_POST(self) -> None:  # noqa: N802 — http.server API
            self._reply(self._post)

        def do_DELETE(self) -> None:  # noqa: N802 — http.server API
            self._reply(service.handle_delete, self.path)

    return Handler
