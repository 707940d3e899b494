"""Campaign service: asyncio, multi-tenant, streaming, backpressured.

A JSON API over the campaign store so long sweeps run detached from
any terminal: clients POST job specs (or whole figure grids), a worker
pool drains the queue, and pollers read status and results by digest.
Pure stdlib ``asyncio``:

* one event loop multiplexes thousands of keep-alive connections
  through a hand-rolled (thin) HTTP/1.1 handler layer;
* a **worker pool** of N async tasks drains the SQLite WAL store
  through a thread pool, so job execution never blocks request
  handling; a finished job commits through the same helper as
  ``campaign run`` (:func:`~repro.campaign.executor._commit_success`);
* **streaming** endpoints push chunked JSON lines: ``GET /jobs/stream``
  follows queue status changes live, ``GET /jobs/<digest>/progress``
  follows one job (checkpointed trial index included) to completion;
* **backpressure**: when the submit queue is saturated
  (``pending + running >= queue_limit``) submissions are refused with
  ``429`` and a ``Retry-After`` header instead of being buried;
* **tenants**: every job and trial-cache row lives in an auth-less
  namespace (``tenant`` body/query field, default ``"default"``), and
  ``/status`` + ``/metrics`` take per-tenant views.

Endpoints
---------
``GET  /healthz``                    liveness probe
``GET  /status[?tenant=T]``          job counts + queue/worker state
``GET  /tenants``                    tenants with at least one job
``GET  /jobs[?status=S&tenant=T&limit=N]``   digests by status
``GET  /jobs/stream[?tenant=T&once=1&interval=S]``  chunked JSONL feed
``GET  /jobs/<digest>/progress[?tenant=T&once=1]``  chunked JSONL feed
``GET  /result/<digest>[?tenant=T]`` spec, provenance, summary
``GET  /metrics[?tenant=T]``         service counters + telemetry
``POST /submit``                     ``{"specs": [...], "tenant": T}`` or
                                     ``{"experiment": "fig3", ...}``

Every non-streaming response is ``application/json``; streams are
``application/x-ndjson`` with chunked transfer encoding.  See
``docs/campaign.md`` for the full table and examples.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from urllib.parse import parse_qsl, urlsplit

from ..core.errors import CampaignError, ReproError
from ..core.httputil import BadRequest, parse_content_length, parse_limit
from ..obs import Telemetry, get_telemetry, set_telemetry
from .executor import _commit_success, execute_spec
from .grids import experiment_specs
from .spec import JobSpec
from .store import DEFAULT_TENANT, CampaignStore, JOB_STATUSES, _check_tenant

__all__ = ["AsyncCampaignService"]

#: Largest request head (request line + headers) the parser accepts.
_MAX_HEAD_BYTES = 32 * 1024


class _Metrics:
    """Cumulative service counters, behind a lock so any thread may read them."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.started_at = time.time()
        self.requests = 0
        self.submitted = 0
        self.executed = 0
        self.failed = 0
        self.wall_time_total = 0.0

    def bump(self, field: str, amount: float = 1) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + amount)

    def snapshot(self) -> dict[str, object]:
        with self._lock:
            return {
                "uptime_seconds": time.time() - self.started_at,
                "requests": self.requests,
                "submitted": self.submitted,
                "executed": self.executed,
                "failed": self.failed,
                "wall_time_total": self.wall_time_total,
            }


def _specs_from_body(body: dict) -> list[JobSpec]:
    """The job specs a ``POST /submit`` body names: a list or a figure grid."""
    if "specs" in body:
        return [JobSpec.from_dict(s) for s in body["specs"]]
    if "experiment" in body:
        return experiment_specs(
            body["experiment"],
            quick=bool(body.get("quick", False)),
            trials=body.get("trials"),
            seed=int(body.get("seed", 201801)),
            engine=body.get("engine", "count"),
        )
    raise CampaignError("submit body needs either 'specs' or 'experiment'")


class _HTTPError(Exception):
    """Internal: abort request handling with a specific status."""

    def __init__(self, code: int, message: str, **extra: object) -> None:
        super().__init__(message)
        self.code = code
        self.payload = {"error": message, **extra}
        self.headers: dict[str, str] = {}


class AsyncCampaignService:
    """Asyncio HTTP facade plus a worker pool over one campaign store.

    Parameters
    ----------
    store_path:
        SQLite database path (created or migrated in place if needed).
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read
        :attr:`address` after :meth:`start`).
    workers:
        Async drain tasks; ``0`` serves a read/submit-only facade (an
        external ``campaign run`` drains the queue).
    queue_limit:
        Submit-queue bound: when ``pending + running`` reaches this,
        ``POST /submit`` returns 429 with ``Retry-After``.
    poll_interval:
        Worker sleep between empty-queue polls, in seconds.
    retry_after:
        Seconds advertised in the 429 ``Retry-After`` header.
    stream_interval:
        Default poll cadence of the streaming endpoints, in seconds.
    """

    def __init__(
        self,
        store_path: str | Path,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 2,
        queue_limit: int = 256,
        poll_interval: float = 0.05,
        retry_after: float = 1.0,
        stream_interval: float = 0.1,
    ) -> None:
        if queue_limit < 1:
            raise CampaignError(f"queue_limit must be positive, got {queue_limit}")
        self.store = CampaignStore(store_path)
        self.metrics = _Metrics()
        #: Live engine/runner telemetry, installed process-wide while
        #: the service runs and exposed verbatim under ``/metrics``.
        self.telemetry = Telemetry()
        self._previous_telemetry = None
        self._host = host
        self._port = port
        self.workers = workers
        self.queue_limit = queue_limit
        self.poll_interval = poll_interval
        self.retry_after = retry_after
        self.stream_interval = stream_interval
        self._depth = 0
        self._worker_state: list[dict] = [
            {"id": i, "busy": False, "beat": None, "current": None, "executed": 0}
            for i in range(workers)
        ]
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._stop_event: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._address: tuple[str, int] | None = None
        self._db_pool: ThreadPoolExecutor | None = None
        self._exec_pool: ThreadPoolExecutor | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """Actual bound ``(host, port)``."""
        if self._address is None:
            raise CampaignError("service not started")
        return self._address

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "AsyncCampaignService":
        """Serve on a dedicated event-loop thread; returns self."""
        self._previous_telemetry = set_telemetry(self.telemetry)
        self._thread = threading.Thread(
            target=self._run_loop, name="campaign-v2", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise self._startup_error
        if self._address is None:
            raise CampaignError("campaign service v2 failed to start in time")
        return self

    def serve_forever(self) -> None:
        """Block until Ctrl-C, then stop; starts the service if not running."""
        if self._thread is None:
            self.start()
        try:
            while self._thread is not None and self._thread.is_alive():
                self._thread.join(timeout=0.5)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        loop, stop = self._loop, self._stop_event
        if loop is not None and stop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass  # loop already closed between checks
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None
        self.store.close()
        if self._previous_telemetry is not None:
            # Only restore if our telemetry is still the installed one —
            # a later service may have replaced it, and re-installing our
            # saved predecessor would leak a stale hook process-wide.
            if get_telemetry() is self.telemetry:
                set_telemetry(self._previous_telemetry)
            self._previous_telemetry = None

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 — surfaced via start()
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._db_pool = ThreadPoolExecutor(
            max_workers=4, thread_name_prefix="campaign-db"
        )
        self._exec_pool = ThreadPoolExecutor(
            max_workers=max(1, self.workers), thread_name_prefix="campaign-exec"
        )
        try:
            recovered = await self._db(self.store.recover_running)
            counts = await self._db(self.store.counts)
            self._depth = counts["pending"] + counts["running"]
            if recovered:
                self.telemetry.counter("campaign.jobs.recovered").inc(recovered)
            server = await asyncio.start_server(
                self._client, self._host, self._port
            )
            self._address = server.sockets[0].getsockname()[:2]
            worker_tasks = [
                asyncio.create_task(self._worker(i), name=f"campaign-worker-{i}")
                for i in range(self.workers)
            ]
            self._ready.set()
            async with server:
                await self._stop_event.wait()
            for task in worker_tasks:
                task.cancel()
            await asyncio.gather(*worker_tasks, return_exceptions=True)
        finally:
            self._ready.set()
            self._db_pool.shutdown(wait=False)
            self._exec_pool.shutdown(wait=False, cancel_futures=True)

    async def _db(self, fn, *args, **kwargs):
        """Run a store call on the DB thread pool."""
        return await self._loop.run_in_executor(
            self._db_pool, lambda: fn(*args, **kwargs)
        )

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------
    async def _worker(self, idx: int) -> None:
        state = self._worker_state[idx]
        busy_gauge = self.telemetry.gauge("campaign.workers.busy")
        while not self._stop_event.is_set():
            state["beat"] = time.time()
            try:
                job = await self._db(self.store.claim_next)
                if job is None:
                    try:
                        await asyncio.wait_for(
                            self._stop_event.wait(), self.poll_interval
                        )
                    except asyncio.TimeoutError:
                        pass
                    continue
                state["busy"] = True
                state["current"] = job.digest
                busy_gauge.set(sum(1 for w in self._worker_state if w["busy"]))
                await self._execute_one(job, state)
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 — a worker must never die
                self.telemetry.counter("campaign.workers.errors").inc()
                await asyncio.sleep(self.poll_interval)
            finally:
                state["busy"] = False
                state["current"] = None
                busy_gauge.set(sum(1 for w in self._worker_state if w["busy"]))

    async def _execute_one(self, job, state: dict) -> None:
        try:
            payload = await self._loop.run_in_executor(
                self._exec_pool, execute_spec, job.spec.canonical()
            )
        except Exception as exc:  # noqa: BLE001 — recorded, not fatal
            await self._record_failure(job, f"{type(exc).__name__}: {exc}")
            return
        # Post-execute commit path wrapped too: a store hiccup (disk
        # full, contention) marks the job failed instead of wedging it
        # in 'running' with a dead worker.  mark_done commits last, so
        # a failed job never passed through 'done'.
        try:
            await self._db(
                _commit_success, self.store, job.digest, payload, job.tenant
            )
        except Exception as exc:  # noqa: BLE001 — recorded, not fatal
            await self._record_failure(
                job, f"result commit failed: {type(exc).__name__}: {exc}"
            )
            return
        self._depth = max(0, self._depth - 1)
        state["executed"] += 1
        self.metrics.bump("executed")
        self.metrics.bump("wall_time_total", payload["wall_time"])
        self.telemetry.counter("campaign.jobs.executed").inc()

    async def _record_failure(self, job, error: str) -> None:
        try:
            await self._db(
                self.store.mark_failed, job.digest, error, tenant=job.tenant
            )
        except Exception:  # noqa: BLE001 — the job re-queues via recovery
            pass
        self._depth = max(0, self._depth - 1)
        self.metrics.bump("failed")
        self.telemetry.counter("campaign.jobs.failed").inc()

    def worker_status(self) -> list[dict]:
        now = time.time()
        return [
            {
                "id": w["id"],
                "busy": w["busy"],
                "current": w["current"],
                "executed": w["executed"],
                "last_beat_age": None if w["beat"] is None else now - w["beat"],
            }
            for w in self._worker_state
        ]

    # ------------------------------------------------------------------
    # HTTP layer
    # ------------------------------------------------------------------
    async def _client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not self._stop_event.is_set():
                request = await self._read_request(reader, writer)
                if request is None:
                    return
                method, path, query, headers, body = request
                keep_alive = headers.get("connection", "").lower() != "close"
                t0 = time.perf_counter()
                self.metrics.bump("requests")
                self.telemetry.counter("campaign.http.requests").inc()
                try:
                    handled = await self._route(
                        method, path, query, headers, body, writer
                    )
                except _HTTPError as exc:
                    self._send_json(writer, exc.code, exc.payload, keep_alive,
                                    extra=exc.headers)
                except (BadRequest, CampaignError, ReproError,
                        TypeError, ValueError, KeyError) as exc:
                    self._send_json(
                        writer, 400, {"error": str(exc)}, keep_alive
                    )
                except (ConnectionResetError, BrokenPipeError):
                    return
                except Exception as exc:  # noqa: BLE001 — surface as 500
                    self.telemetry.counter("campaign.http.500").inc()
                    self._send_json(
                        writer, 500,
                        {"error": f"{type(exc).__name__}: {exc}"},
                        keep_alive,
                    )
                else:
                    if handled == "stream":
                        # Streams close the connection when they finish.
                        return
                    code, payload, extra = handled
                    self._send_json(writer, code, payload, keep_alive, extra=extra)
                self.telemetry.histogram("campaign.http.micros").record(
                    (time.perf_counter() - t0) * 1e6
                )
                await writer.drain()
                if not keep_alive:
                    return
        except (asyncio.IncompleteReadError, ConnectionResetError,
                BrokenPipeError, asyncio.LimitOverrunError):
            pass
        except asyncio.CancelledError:
            raise
        finally:
            try:
                writer.close()
            except Exception:  # noqa: BLE001 — already gone
                pass

    async def _read_request(self, reader, writer):
        """Parse one HTTP/1.1 request; None at clean EOF."""
        try:
            line = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            self._send_json(writer, 431, {"error": "request line too long"}, False)
            return None
        if not line or line in (b"\r\n", b"\n"):
            return None
        try:
            method, target, _version = line.decode("latin-1").split(None, 2)
        except ValueError:
            self._send_json(writer, 400, {"error": "malformed request line"}, False)
            return None
        headers: dict[str, str] = {}
        head_bytes = len(line)
        while True:
            line = await reader.readline()
            head_bytes += len(line)
            if head_bytes > _MAX_HEAD_BYTES:
                self._send_json(writer, 431, {"error": "headers too large"}, False)
                return None
            if not line:
                return None
            if line in (b"\r\n", b"\n"):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        try:
            length = parse_content_length(None, headers.get("content-length"))
        except BadRequest as exc:
            # A malformed Content-Length is a JSON 400, not an
            # unhandled ValueError that drops the connection.
            self._send_json(writer, 400, {"error": str(exc)}, False)
            await writer.drain()
            return None
        body = await reader.readexactly(length) if length else b""
        parts = urlsplit(target)
        query = dict(parse_qsl(parts.query))
        return method.upper(), parts.path, query, headers, body

    def _send_json(
        self,
        writer: asyncio.StreamWriter,
        code: int,
        payload: dict,
        keep_alive: bool,
        *,
        extra: dict[str, str] | None = None,
    ) -> None:
        if writer.is_closing():
            return
        body = json.dumps(payload).encode()
        if 400 <= code < 500:
            self.telemetry.counter(f"campaign.http.{code}").inc()
        headers = {
            "Content-Type": "application/json",
            "Content-Length": str(len(body)),
            "Connection": "keep-alive" if keep_alive else "close",
            **(extra or {}),
        }
        head = f"HTTP/1.1 {code} {_REASONS.get(code, 'OK')}\r\n" + "".join(
            f"{k}: {v}\r\n" for k, v in headers.items()
        )
        writer.write(head.encode() + b"\r\n" + body)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(self, method, path, query, headers, body, writer):
        """Dispatch; returns ``(code, payload, extra_headers)`` or ``"stream"``."""
        if method == "GET":
            if path == "/jobs/stream":
                await self._stream_jobs(writer, query)
                return "stream"
            if path.startswith("/jobs/") and path.endswith("/progress"):
                digest = path[len("/jobs/"):-len("/progress")]
                await self._stream_progress(writer, digest, query)
                return "stream"
            return await self._get(path, query)
        if method == "POST":
            return await self._post(path, query, body)
        raise _HTTPError(405, f"method {method} not allowed")

    @staticmethod
    def _tenant_of(query: dict, default: str | None = None) -> str | None:
        tenant = query.get("tenant", default)
        if tenant is not None:
            _check_tenant(tenant)
        return tenant

    async def _get(self, path: str, query: dict):
        if path == "/healthz":
            return 200, {"ok": True, "v": 2, "store": str(self.store.path)}, None
        if path == "/status":
            tenant = self._tenant_of(query)
            counts = await self._db(self.store.counts, tenant=tenant)
            # Resync the advisory backpressure gauge while we have
            # fresh global numbers (cheap drift correction).
            if tenant is None:
                self._depth = counts["pending"] + counts["running"]
            payload = {
                "jobs": counts,
                "tenant": tenant,
                "queue_depth": counts["pending"] + counts["running"],
                "queue_limit": self.queue_limit,
                "workers": self.worker_status(),
                "workers_alive": sum(
                    1 for w in self.worker_status()
                    if w["last_beat_age"] is not None
                ),
                "trial_cache_entries": await self._db(
                    self.store.trial_cache_size, tenant=tenant
                ),
                "uptime_seconds": time.time() - self.metrics.started_at,
            }
            return 200, payload, None
        if path == "/tenants":
            return 200, {"tenants": await self._db(self.store.tenants)}, None
        if path == "/metrics":
            tenant = self._tenant_of(query)
            payload = self.metrics.snapshot()
            payload["tenant"] = tenant
            payload["jobs"] = await self._db(self.store.counts, tenant=tenant)
            payload["queue_depth"] = self._depth
            payload["queue_limit"] = self.queue_limit
            payload["telemetry"] = self.telemetry.snapshot()
            return 200, payload, None
        if path == "/jobs":
            status = query.get("status")
            if status is not None and status not in JOB_STATUSES:
                raise _HTTPError(400, f"unknown status {status!r}")
            limit = parse_limit(query.get("limit"))
            tenant = self._tenant_of(query)
            jobs = await self._db(
                self.store.list_jobs, status=status, limit=limit, tenant=tenant
            )
            return 200, {
                "jobs": [
                    {
                        "digest": j.digest,
                        "status": j.status,
                        "tenant": j.tenant,
                        "label": j.spec.label(),
                    }
                    for j in jobs
                ]
            }, None
        if path.startswith("/result/"):
            digest = path.removeprefix("/result/")
            tenant = self._tenant_of(query, DEFAULT_TENANT)
            job = await self._db(self.store.get, digest, tenant=tenant)
            if job is None:
                raise _HTTPError(
                    404, f"no job with digest {digest!r} for tenant {tenant!r}"
                )
            return 200, {
                "digest": job.digest,
                "tenant": job.tenant,
                "status": job.status,
                "spec": job.spec.canonical(),
                "summary": job.summary,
                "error": job.error,
                "attempts": job.attempts,
                "wall_time": job.wall_time,
                "git_rev": job.git_rev,
                "package_version": job.package_version,
            }, None
        raise _HTTPError(404, f"no route for GET {path}")

    async def _post(self, path: str, query: dict, body_bytes: bytes):
        try:
            body = json.loads(body_bytes or b"{}")
            if not isinstance(body, dict):
                raise ValueError("request body must be a JSON object")
        except ValueError as exc:
            raise _HTTPError(400, f"bad JSON body: {exc}") from None
        if path != "/submit":
            raise _HTTPError(404, f"no route for POST {path}")
        tenant = body.pop("tenant", None) or self._tenant_of(query, DEFAULT_TENANT)
        _check_tenant(tenant)
        # Backpressure: refuse before any parsing or SQL when the
        # submit queue is saturated, and tell the client when to retry.
        if self._depth >= self.queue_limit:
            error = _HTTPError(
                429,
                f"submit queue saturated ({self._depth} >= {self.queue_limit})",
                retry_after=self.retry_after,
            )
            error.headers["Retry-After"] = f"{self.retry_after:g}"
            raise error
        try:
            specs = _specs_from_body(body)
        except (ReproError, TypeError, ValueError, KeyError) as exc:
            raise _HTTPError(400, str(exc)) from None
        outcome = await self._db(
            self.store.submit_many,
            specs,
            campaign=body.get("campaign"),
            tenant=tenant,
        )
        self._depth += outcome["created"]
        self.telemetry.gauge("campaign.queue.depth").set(self._depth)
        self.metrics.bump("submitted", outcome["created"])
        return 200, {
            "submitted": outcome["created"],
            "already_known": outcome["existing"],
            "already_done": outcome["done"],
            "tenant": tenant,
            "digests": [spec.digest for spec in specs],
        }, None

    # ------------------------------------------------------------------
    # Streaming endpoints (chunked JSON lines)
    # ------------------------------------------------------------------
    def _start_stream(self, writer: asyncio.StreamWriter) -> None:
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode())

    async def _emit(self, writer: asyncio.StreamWriter, record: dict) -> None:
        data = json.dumps(record).encode() + b"\n"
        writer.write(f"{len(data):X}\r\n".encode() + data + b"\r\n")
        await writer.drain()

    async def _end_stream(self, writer: asyncio.StreamWriter) -> None:
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    def _stream_params(self, query: dict) -> tuple[bool, float]:
        once = query.get("once", "").lower() in ("1", "true", "yes")
        try:
            interval = float(query.get("interval", self.stream_interval))
        except ValueError:
            raise BadRequest(
                f"interval must be a number, got {query.get('interval')!r}"
            ) from None
        return once, max(0.01, min(interval, 10.0))

    async def _stream_jobs(self, writer, query: dict) -> None:
        """Chunked JSONL: per-job status lines, then live change events.

        Every line is a JSON object: first a ``snapshot`` line per
        current job (bounded by ``limit``), then — unless ``once`` —
        ``status`` lines as jobs change state plus periodic
        ``heartbeat`` lines until the client disconnects.
        """
        tenant = self._tenant_of(query)
        status = query.get("status")
        if status is not None and status not in JOB_STATUSES:
            raise _HTTPError(400, f"unknown status {status!r}")
        limit = parse_limit(query.get("limit"), default=1000)
        once, interval = self._stream_params(query)
        self._start_stream(writer)
        self.telemetry.counter("campaign.http.streams").inc()
        seen: dict[tuple[str, str], str] = {}
        jobs = await self._db(
            self.store.list_jobs, status=status, limit=limit, tenant=tenant
        )
        for j in jobs:
            seen[(j.tenant, j.digest)] = j.status
            await self._emit(writer, {
                "type": "snapshot", "digest": j.digest, "tenant": j.tenant,
                "status": j.status, "label": j.spec.label(),
            })
        if once:
            await self._end_stream(writer)
            return
        try:
            while not self._stop_event.is_set() and not writer.is_closing():
                await asyncio.sleep(interval)
                jobs = await self._db(
                    self.store.list_jobs, status=status, limit=limit,
                    tenant=tenant,
                )
                changed = 0
                for j in jobs:
                    key = (j.tenant, j.digest)
                    if seen.get(key) != j.status:
                        seen[key] = j.status
                        changed += 1
                        await self._emit(writer, {
                            "type": "status", "digest": j.digest,
                            "tenant": j.tenant, "status": j.status,
                        })
                if not changed:
                    counts = await self._db(self.store.counts, tenant=tenant)
                    await self._emit(writer, {
                        "type": "heartbeat", "jobs": counts,
                        "queue_depth": counts["pending"] + counts["running"],
                    })
        except (ConnectionResetError, BrokenPipeError):
            return
        try:
            await self._end_stream(writer)
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def _stream_progress(self, writer, digest: str, query: dict) -> None:
        """Chunked JSONL following one job to a terminal state.

        Lines carry the job status plus, while it runs, the resumable
        checkpoint's trial index — live per-job progress without any
        server-side session state.
        """
        tenant = self._tenant_of(query, DEFAULT_TENANT)
        once, interval = self._stream_params(query)
        job = await self._db(self.store.get, digest, tenant=tenant)
        if job is None:
            raise _HTTPError(
                404, f"no job with digest {digest!r} for tenant {tenant!r}"
            )
        self._start_stream(writer)
        self.telemetry.counter("campaign.http.streams").inc()
        try:
            while True:
                job = await self._db(self.store.get, digest, tenant=tenant)
                if job is None:
                    await self._emit(writer, {
                        "type": "gone", "digest": digest, "tenant": tenant,
                    })
                    break
                ckpt = await self._db(
                    self.store.load_checkpoint, digest, tenant=tenant
                )
                record = {
                    "type": "progress",
                    "digest": digest,
                    "tenant": tenant,
                    "status": job.status,
                    "attempts": job.attempts,
                    "trials": job.spec.trials,
                    "trials_completed": (
                        None if ckpt is None else ckpt["trial_index"]
                    ),
                }
                if job.status in ("done", "failed"):
                    record["wall_time"] = job.wall_time
                    record["error"] = job.error
                await self._emit(writer, record)
                if once or job.status in ("done", "failed"):
                    break
                if self._stop_event.is_set() or writer.is_closing():
                    break
                await asyncio.sleep(interval)
        except (ConnectionResetError, BrokenPipeError):
            return
        try:
            await self._end_stream(writer)
        except (ConnectionResetError, BrokenPipeError):
            pass


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}
