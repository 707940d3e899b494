"""The daemon core the campaign and session services share.

The two services grew the same two parsing bugs independently —
``int(query["limit"])`` and ``int(Content-Length)`` turning malformed
client input into unhandled ``ValueError`` (a 500, or a dropped
connection).  Both daemons now parse through this module so a bad
request is a :class:`BadRequest` (rendered as a JSON 400) in exactly
one place.  They also share the JSON response encoder
(:func:`json_response`), the request-body decoder and the
:class:`Daemon` lifecycle and counter registry.
"""

from __future__ import annotations

import json
import threading
import time
from collections.abc import Mapping
from http import HTTPStatus

from ..obs.telemetry import Telemetry, get_telemetry, set_telemetry

__all__ = [
    "BadRequest",
    "Daemon",
    "json_response",
    "parse_content_length",
    "parse_json_object",
    "parse_limit",
]

#: Upper bound every ``?limit=`` clamp shares across services.
MAX_LIMIT = 1000

#: Request bodies above this are rejected outright (64 MiB — far above
#: any legitimate grid submission, far below a memory-exhaustion write).
MAX_BODY_BYTES = 64 * 1024 * 1024


class BadRequest(ValueError):
    """Client input failed validation; render as an HTTP 400."""


def parse_limit(
    raw: str | None, *, default: int = 100, maximum: int = MAX_LIMIT
) -> int:
    """Validate and clamp a ``?limit=`` query value.

    ``None`` (absent) yields ``default``; a non-integer or non-positive
    value raises :class:`BadRequest`; anything above ``maximum`` is
    clamped.  Never lets an unvalidated value reach SQL.
    """
    if raw is None:
        return min(default, maximum)
    try:
        value = int(raw)
    except ValueError:
        raise BadRequest(f"limit must be an integer, got {raw!r}") from None
    if value < 1:
        raise BadRequest(f"limit must be positive, got {value}")
    return min(value, maximum)


def parse_content_length(headers: Mapping[str, str] | None, raw: str | None = None) -> int:
    """Validate a ``Content-Length`` header value.

    Accepts either a headers mapping or the raw header string (pass
    ``headers=None``).  Absent means 0.  A malformed or negative value
    raises :class:`BadRequest` instead of an unhandled ``ValueError``
    that drops the connection without a response; an absurdly large
    one is rejected before any read.
    """
    if headers is not None:
        raw = headers.get("Content-Length")
    if raw is None or raw == "":
        return 0
    try:
        length = int(raw)
    except ValueError:
        raise BadRequest(
            f"malformed Content-Length header: {raw!r}"
        ) from None
    if length < 0:
        raise BadRequest(f"negative Content-Length: {length}")
    if length > MAX_BODY_BYTES:
        raise BadRequest(
            f"Content-Length {length} exceeds the {MAX_BODY_BYTES}-byte cap"
        )
    return length


def parse_json_object(raw: bytes) -> dict:
    """Decode a request body that must be a JSON object (empty means ``{}``)."""
    try:
        body = json.loads(raw or b"{}")
    except ValueError as exc:
        raise BadRequest(f"bad JSON body: {exc}") from None
    if not isinstance(body, dict):
        raise BadRequest("bad JSON body: request body must be a JSON object")
    return body


def json_response(
    code: int, payload: object, headers: Mapping[str, str] | None = None
) -> bytes:
    """An HTTP/1.1 JSON response — status line, headers, body — as one buffer.

    Sent in one write, the body of a keep-alive response never waits
    for the client's delayed ACK of the head (about 40 ms).
    """
    body = json.dumps(payload).encode()
    head = [
        f"HTTP/1.1 {code} {HTTPStatus(code).phrase}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        *(f"{name}: {value}" for name, value in (headers or {}).items()),
    ]
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


#: Each running daemon's registry -> the registry it replaced.
_REPLACED: dict[Telemetry, Telemetry] = {}
_INSTALL_LOCK = threading.Lock()


def _install(telemetry: Telemetry) -> None:
    with _INSTALL_LOCK:
        _REPLACED[telemetry] = set_telemetry(telemetry)


def _uninstall(telemetry: Telemetry) -> None:
    """Take a daemon's registry out of the chain of installed ones.

    A daemon that replaced it inherits what it replaced, so however
    overlapping daemons stop, the last one restores the registry that
    was active before any of them started.
    """
    with _INSTALL_LOCK:
        if telemetry not in _REPLACED:
            return
        replaced = _REPLACED.pop(telemetry)
        for later, previous in _REPLACED.items():
            if previous is telemetry:
                _REPLACED[later] = replaced
        if get_telemetry() is telemetry:
            set_telemetry(replaced)


class Daemon:
    """Lifecycle and counters of an HTTP daemon over one store.

    A subclass serves in ``_serve()``: it binds, calls
    :meth:`_listening` and serves until ``_shutdown()`` is called from
    another thread.  It maps its ``/metrics`` keys to counters in
    :attr:`COUNTERS`.  ``store`` is what :meth:`stop` closes; ``port=0``
    picks an ephemeral port (read :attr:`address` after :meth:`start`).
    """

    #: Name of the serving thread.
    thread_name = "daemon"
    #: ``/metrics`` key -> counter name in :attr:`telemetry`.
    COUNTERS: dict[str, str] = {}

    def __init__(self, store, host: str, port: int) -> None:
        #: The service's counters next to the engines' instruments,
        #: installed process-wide while the daemon runs.
        self.telemetry = Telemetry()
        self._count_lock = threading.Lock()
        self._store = store
        self._bind = (host, port)
        self._started_at = time.time()
        self._address: tuple[str, int] | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._stopped = False

    def count(self, key: str, amount: int | float = 1) -> None:
        """Add ``amount`` to the counter behind ``/metrics`` key ``key``."""
        counter = self.telemetry.counter(self.COUNTERS[key])
        with self._count_lock:
            counter.inc(amount)

    @property
    def uptime_seconds(self) -> float:
        return time.time() - self._started_at

    def metrics_payload(self, **extra: object) -> dict[str, object]:
        """The ``/metrics`` body: uptime, every :attr:`COUNTERS` value by
        key, ``extra``, then the whole registry under ``telemetry``."""
        payload: dict[str, object] = {"uptime_seconds": self.uptime_seconds}
        for key, name in self.COUNTERS.items():
            payload[key] = self.telemetry.counter(name).snapshot()
        payload.update(extra)
        payload["telemetry"] = self.telemetry.snapshot()
        return payload

    @property
    def address(self) -> tuple[str, int]:
        """Actual bound ``(host, port)``."""
        if self._address is None:
            raise RuntimeError(f"{self.thread_name} is not serving")
        return self._address

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "Daemon":
        """Serve on a daemon thread; returns self once listening.

        Raises what failed the startup (a taken port, say), after
        undoing it with :meth:`stop`.
        """
        _install(self.telemetry)
        self._thread = threading.Thread(
            target=self._run, name=self.thread_name, daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._address is None:
            error = self._startup_error or RuntimeError(
                f"{self.thread_name} failed to start in time"
            )
            self.stop()
            raise error
        return self

    def serve_forever(self) -> None:
        """Block until Ctrl-C, then stop; starts the daemon if not running."""
        if self._thread is None:
            self.start()
        try:
            while self._thread.is_alive():
                self._thread.join(timeout=0.5)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        """Stop serving, close the store, uninstall the telemetry.

        Idempotent, and safe before :meth:`start`.
        """
        if self._stopped:
            return
        self._stopped = True
        if self._thread is not None:
            if self._thread.is_alive():
                self._shutdown()
            self._thread.join(timeout=30)
        self._store.close()
        _uninstall(self.telemetry)

    def _run(self) -> None:
        try:
            self._serve()
        except BaseException as exc:  # noqa: BLE001 — raised by start()
            if self._address is not None:
                raise  # after startup: the thread's excepthook reports it
            self._startup_error = exc
        finally:
            self._ready.set()

    def _listening(self, address: tuple) -> None:
        """Called by ``_serve()`` once the socket accepts connections."""
        self._address = tuple(address[:2])
        self._ready.set()
