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

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from ..core.errors import ReproError, SimulationError
from ..core.httputil import BadRequest, parse_content_length, parse_limit
from ..obs import Telemetry, get_telemetry, set_telemetry
from .bisect import bisect_divergence
from .manager import SessionManager
from .store import SnapshotStore

__all__ = ["SessionService"]


class _Metrics:
    """Cumulative counters, guarded by a lock (handler threads write)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.started_at = time.time()
        self.requests = 0
        self.created = 0
        self.advanced_interactions = 0
        self.forks = 0
        self.rewinds = 0
        self.bisections = 0

    def bump(self, field: str, amount: float = 1) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + amount)

    def snapshot(self) -> dict[str, object]:
        with self._lock:
            return {
                "uptime_seconds": time.time() - self.started_at,
                "requests": self.requests,
                "created": self.created,
                "advanced_interactions": self.advanced_interactions,
                "forks": self.forks,
                "rewinds": self.rewinds,
                "bisections": self.bisections,
            }


class SessionService:
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
        self.metrics = _Metrics()
        #: Live telemetry (sessiond.* instruments), installed
        #: process-wide while the service runs, exposed under /metrics.
        self.telemetry = Telemetry()
        self._previous_telemetry = None
        self._stop = threading.Event()
        self._server_thread: threading.Thread | None = None
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """Actual bound ``(host, port)``."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "SessionService":
        """Serve in a background thread; returns self for chaining."""
        self._previous_telemetry = set_telemetry(self.telemetry)
        self._server_thread = threading.Thread(
            target=self._httpd.serve_forever, name="sessiond-http", daemon=True
        )
        self._server_thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking variant for the CLI ``serve`` verb."""
        self.start()
        try:
            while not self._stop.is_set():
                time.sleep(0.5)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        self._stop.set()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._server_thread is not None:
            self._server_thread.join(timeout=10)
        self.manager.close()
        if self._previous_telemetry is not None:
            # Only restore if our telemetry is still the installed one —
            # a later service may have replaced it, and re-installing our
            # saved predecessor would displace that service's registry.
            if get_telemetry() is self.telemetry:
                set_telemetry(self._previous_telemetry)
            self._previous_telemetry = None

    # ------------------------------------------------------------------
    # Request handling (called from handler threads)
    # ------------------------------------------------------------------
    def handle_get(self, path: str, query: dict[str, str]) -> tuple[int, dict]:
        self.metrics.bump("requests")
        if path == "/healthz":
            return 200, {"ok": True, "store": str(self.manager.store.path)}
        if path == "/metrics":
            body = self.metrics.snapshot()
            body["store"] = self.manager.store.stats()
            body["telemetry"] = self.telemetry.snapshot()
            return 200, body
        try:
            limit = parse_limit(query.get("limit"), default=1000)
        except BadRequest as exc:
            return 400, {"error": str(exc)}
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
        self.metrics.bump("requests")
        try:
            if path == "/sessions":
                payload = self.manager.create(
                    body, session_id=body.pop("id", None)
                )
                self.metrics.bump("created")
                return 200, payload
            if path == "/bisect":
                report = bisect_divergence(
                    self.manager,
                    body["a"],
                    body["b"],
                    reproducer_dir=body.get("reproducer_dir"),
                )
                self.metrics.bump("bisections")
                return 200, report.to_record()
            if path == "/gc":
                return 200, self.manager.gc(keep_every=body.get("keep_every"))
            sid, _, verb = path.removeprefix("/sessions/").partition("/")
            if path.startswith("/sessions/") and sid:
                if verb == "advance":
                    payload = self.manager.advance(sid, body.get("budget"))
                    self.metrics.bump("advanced_interactions", payload["advanced"])
                    return 200, payload
                if verb == "snapshot":
                    return 200, self.manager.snapshot(sid)
                if verb == "fork":
                    payload = self.manager.fork(
                        sid, at=body.get("at"), child_id=body.get("id")
                    )
                    self.metrics.bump("forks")
                    return 200, payload
                if verb == "rewind":
                    if "at" not in body:
                        return 400, {"error": "rewind body needs 'at'"}
                    payload = self.manager.rewind(sid, int(body["at"]))
                    self.metrics.bump("rewinds")
                    return 200, payload
            return 404, {"error": f"no route for POST {path}"}
        except KeyError as exc:
            return 400, {"error": f"missing body key {exc}"}
        except (ReproError, TypeError, ValueError) as exc:
            return 400, {"error": str(exc)}

    def handle_delete(self, path: str) -> tuple[int, dict]:
        self.metrics.bump("requests")
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
            # Status line, headers and body leave in one write.  Written
            # separately, the body of a keep-alive response waited for
            # the client's delayed ACK of the head (about 40 ms).
            body = json.dumps(payload).encode()
            head = (
                f"{self.protocol_version} {code} {self.responses[code][0]}\r\n"
                f"Server: {self.version_string()}\r\n"
                f"Date: {self.date_time_string()}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            )
            self.wfile.write(head.encode("latin-1") + body)

        def do_GET(self) -> None:  # noqa: N802 — http.server API
            from urllib.parse import parse_qsl, urlsplit

            parts = urlsplit(self.path)
            query = dict(parse_qsl(parts.query))
            try:
                code, payload = service.handle_get(parts.path, query)
            except Exception as exc:  # noqa: BLE001 — surface as 500
                code, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
            self._respond(code, payload)

        def do_POST(self) -> None:  # noqa: N802 — http.server API
            try:
                length = parse_content_length(self.headers)
            except BadRequest as exc:
                # A malformed header used to raise out of the handler
                # and drop the connection with no response at all.
                # The body length is unknowable, so close afterwards.
                self.close_connection = True
                self._respond(400, {"error": str(exc)})
                return
            raw = self.rfile.read(length) if length else b"{}"
            try:
                body = json.loads(raw or b"{}")
                if not isinstance(body, dict):
                    raise ValueError("request body must be a JSON object")
            except ValueError as exc:
                self._respond(400, {"error": f"bad JSON body: {exc}"})
                return
            try:
                code, payload = service.handle_post(self.path, body)
            except Exception as exc:  # noqa: BLE001 — surface as 500
                code, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
            self._respond(code, payload)

        def do_DELETE(self) -> None:  # noqa: N802 — http.server API
            try:
                code, payload = service.handle_delete(self.path)
            except Exception as exc:  # noqa: BLE001 — surface as 500
                code, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
            self._respond(code, payload)

    return Handler
