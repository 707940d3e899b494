"""Load-generation harness for the campaign service.

Two client models drive a running service with thousands of
concurrent requests from one process:

* **closed loop** (:func:`run_closed_loop`): N clients, each holding
  one keep-alive connection, cycle submit → status → result as fast as
  responses come back.  Offered load adapts to service latency, so the
  measurement is "how fast can N concurrent users go" — the classic
  saturation throughput probe.
* **open loop** (:func:`run_open_loop`): requests fire at a fixed
  target rate on fresh connections regardless of completions — the
  model that exposes queue collapse and backpressure, because offered
  load does not politely slow down when the service does.

Every request lands in a :class:`LoadReport` — status-code histogram,
p50/p90/p99 latency, throughput — and is published through the active
telemetry registry (``loadgen.*`` instruments), so a service-side
``/metrics`` scrape and the client-side report meet in one place.
``benchmarks/bench_campaign.py`` drives both models and writes
``BENCH_campaign.json``.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from urllib.parse import urlsplit

from ..core.errors import CampaignError
from ..obs import get_telemetry
from .spec import JobSpec

__all__ = [
    "LoadReport",
    "make_specs",
    "run_closed_loop",
    "run_open_loop",
]


def make_specs(
    count: int,
    *,
    k: int = 3,
    n: int = 8,
    trials: int = 1,
    seed0: int = 1,
    engine: str = "count",
) -> list[dict]:
    """``count`` distinct tiny job specs (unique seeds → unique digests)."""
    return [
        JobSpec(
            protocol="uniform-k-partition",
            params={"k": k},
            n=n,
            trials=trials,
            seed=seed0 + i,
            engine=engine,
        ).canonical()
        for i in range(count)
    ]


@dataclass(slots=True)
class LoadReport:
    """Aggregated outcome of one load run."""

    mode: str
    concurrency: int
    duration: float
    requests: int = 0
    transport_errors: int = 0
    by_code: dict[int, int] = field(default_factory=dict)
    #: Sorted request latencies in microseconds.
    latencies_us: list[float] = field(default_factory=list)
    #: Peak number of requests simultaneously in flight.
    max_in_flight: int = 0

    # ------------------------------------------------------------------
    def count(self, code_floor: int, code_ceil: int) -> int:
        return sum(
            c for code, c in self.by_code.items()
            if code_floor <= code < code_ceil
        )

    @property
    def server_errors(self) -> int:
        """5xx responses (the acceptance gate: must be zero)."""
        return self.count(500, 600)

    @property
    def rejected(self) -> int:
        """429 backpressure responses."""
        return self.by_code.get(429, 0)

    @property
    def throughput(self) -> float:
        return self.requests / self.duration if self.duration > 0 else 0.0

    def quantile(self, q: float) -> float:
        """Latency quantile in seconds (0 <= q <= 1)."""
        if not self.latencies_us:
            return 0.0
        idx = min(len(self.latencies_us) - 1, int(q * len(self.latencies_us)))
        return self.latencies_us[idx] / 1e6

    def to_record(self) -> dict:
        """JSON-safe summary (what the benchmark persists)."""
        return {
            "mode": self.mode,
            "concurrency": self.concurrency,
            "duration_seconds": round(self.duration, 3),
            "requests": self.requests,
            "throughput_rps": round(self.throughput, 1),
            "by_code": {str(k): v for k, v in sorted(self.by_code.items())},
            "rejected_429": self.rejected,
            "server_errors_5xx": self.server_errors,
            "transport_errors": self.transport_errors,
            "max_in_flight": self.max_in_flight,
            "latency_seconds": {
                "p50": round(self.quantile(0.50), 6),
                "p90": round(self.quantile(0.90), 6),
                "p99": round(self.quantile(0.99), 6),
                "mean": round(
                    sum(self.latencies_us) / len(self.latencies_us) / 1e6, 6
                ) if self.latencies_us else 0.0,
            },
        }

    def summary(self) -> str:
        r = self.to_record()
        lat = r["latency_seconds"]
        return (
            f"{self.mode} x{self.concurrency}: {self.requests} requests in "
            f"{self.duration:.2f}s ({r['throughput_rps']:.0f} req/s), "
            f"p50={lat['p50'] * 1e3:.1f}ms p99={lat['p99'] * 1e3:.1f}ms, "
            f"429s={self.rejected}, 5xx={self.server_errors}, "
            f"transport_errors={self.transport_errors}"
        )


class _Recorder:
    """Mutable per-run accumulator shared by all client coroutines."""

    def __init__(self, mode: str, concurrency: int) -> None:
        self.mode = mode
        self.concurrency = concurrency
        self.samples: list[float] = []
        self.by_code: dict[int, int] = {}
        self.transport_errors = 0
        self.in_flight = 0
        self.max_in_flight = 0
        self._telemetry = get_telemetry()

    def enter(self) -> None:
        self.in_flight += 1
        self.max_in_flight = max(self.max_in_flight, self.in_flight)

    def exit(self) -> None:
        self.in_flight -= 1

    def record(self, code: int, micros: float) -> None:
        self.samples.append(micros)
        self.by_code[code] = self.by_code.get(code, 0) + 1
        self._telemetry.counter("loadgen.requests").inc()
        self._telemetry.counter(f"loadgen.http.{code}").inc()
        self._telemetry.histogram("loadgen.micros").record(micros)

    def error(self) -> None:
        self.transport_errors += 1
        self._telemetry.counter("loadgen.transport_errors").inc()

    def report(self, duration: float) -> LoadReport:
        return LoadReport(
            mode=self.mode,
            concurrency=self.concurrency,
            duration=duration,
            requests=len(self.samples),
            transport_errors=self.transport_errors,
            by_code=dict(self.by_code),
            latencies_us=sorted(self.samples),
            max_in_flight=self.max_in_flight,
        )


def _host_port(url: str) -> tuple[str, int]:
    parts = urlsplit(url)
    if parts.scheme != "http" or parts.hostname is None or parts.port is None:
        raise CampaignError(
            f"loadgen needs an explicit http://host:port URL, got {url!r}"
        )
    return parts.hostname, parts.port


async def _http(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    method: str,
    path: str,
    host: str,
    body: dict | None = None,
) -> tuple[int, bytes, bool]:
    """One request/response on an open connection.

    Returns ``(status, body, keep_alive)``.  Raises ``ConnectionError``
    family / ``asyncio.IncompleteReadError`` on transport failure.
    """
    payload = b"" if body is None else json.dumps(body).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n"
    )
    writer.write(head.encode() + payload)
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionResetError("server closed the connection")
    code = int(status_line.split()[1])
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if not line:
            raise ConnectionResetError("truncated response head")
        if line in (b"\r\n", b"\n"):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    data = await reader.readexactly(length) if length else b""
    keep = headers.get("connection", "keep-alive").lower() != "close"
    return code, data, keep


# ----------------------------------------------------------------------
# Closed loop
# ----------------------------------------------------------------------
async def _closed_client(
    idx: int,
    host: str,
    port: int,
    deadline: float,
    specs: list[dict],
    tenant: str,
    rec: _Recorder,
) -> None:
    reader = writer = None
    spec_i = 0
    digest: str | None = None
    ops = ("submit", "status", "result")
    op_i = 0
    while time.perf_counter() < deadline:
        try:
            if writer is None:
                reader, writer = await asyncio.open_connection(host, port)
            op = ops[op_i % len(ops)]
            op_i += 1
            if op == "submit" and specs:
                spec = specs[(idx + spec_i) % len(specs)]
                spec_i += 1
                method, path = "POST", "/submit"
                body = {"specs": [spec], "tenant": tenant}
            elif op == "result" and digest is not None:
                method, path = "GET", f"/result/{digest}?tenant={tenant}"
                body = None
            else:
                method, path = "GET", f"/status?tenant={tenant}"
                body = None
            rec.enter()
            t0 = time.perf_counter()
            try:
                code, data, keep = await _http(
                    reader, writer, method, path, host, body
                )
            finally:
                rec.exit()
            rec.record(code, (time.perf_counter() - t0) * 1e6)
            if op == "submit" and code == 200:
                digests = json.loads(data).get("digests") or []
                if digests:
                    digest = digests[0]
            if not keep:
                writer.close()
                writer = reader = None
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            rec.error()
            if writer is not None:
                writer.close()
            writer = reader = None
            await asyncio.sleep(0.01)
    if writer is not None:
        writer.close()


async def _run_closed(
    url: str, *, clients: int, duration: float, specs: list[dict], tenant: str
) -> LoadReport:
    host, port = _host_port(url)
    rec = _Recorder("closed-loop", clients)
    t0 = time.perf_counter()
    deadline = t0 + duration
    tasks = [
        asyncio.create_task(
            _closed_client(i, host, port, deadline, specs, tenant, rec)
        )
        for i in range(clients)
    ]
    await asyncio.gather(*tasks)
    return rec.report(time.perf_counter() - t0)


def run_closed_loop(
    url: str,
    *,
    clients: int = 100,
    duration: float = 5.0,
    specs: list[dict] | None = None,
    tenant: str = "default",
) -> LoadReport:
    """N keep-alive clients cycling submit/status/result until ``duration``.

    ``specs`` is the pool of job specs submissions draw from (round-
    robin per client); ``None`` makes the run status/result-only.
    """
    return asyncio.run(_run_closed(
        url, clients=clients, duration=duration,
        specs=specs or [], tenant=tenant,
    ))


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------
async def _one_shot(
    host: str,
    port: int,
    method: str,
    path: str,
    body: dict | None,
    rec: _Recorder,
    gate: asyncio.Semaphore,
) -> None:
    async with gate:
        rec.enter()
        t0 = time.perf_counter()
        writer = None
        try:
            reader, writer = await asyncio.open_connection(host, port)
            code, _data, _keep = await _http(
                reader, writer, method, path, host, body
            )
            rec.record(code, (time.perf_counter() - t0) * 1e6)
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            rec.error()
        finally:
            rec.exit()
            if writer is not None:
                writer.close()


async def _run_open(
    url: str,
    *,
    rate: float,
    duration: float,
    specs: list[dict],
    tenant: str,
    status_every: int,
    max_in_flight: int,
) -> LoadReport:
    host, port = _host_port(url)
    rec = _Recorder("open-loop", max_in_flight)
    gate = asyncio.Semaphore(max_in_flight)
    period = 1.0 / rate
    t0 = time.perf_counter()
    deadline = t0 + duration
    tasks: list[asyncio.Task] = []
    i = 0
    next_fire = t0
    while True:
        now = time.perf_counter()
        if now >= deadline:
            break
        if now < next_fire:
            await asyncio.sleep(min(next_fire - now, 0.05))
            continue
        next_fire += period
        if status_every and i % status_every == 0:
            method, path, body = "GET", f"/status?tenant={tenant}", None
        else:
            spec = specs[i % len(specs)] if specs else None
            if spec is None:
                method, path, body = "GET", f"/status?tenant={tenant}", None
            else:
                method, path = "POST", "/submit"
                body = {"specs": [spec], "tenant": tenant}
        tasks.append(asyncio.create_task(
            _one_shot(host, port, method, path, body, rec, gate)
        ))
        i += 1
    await asyncio.gather(*tasks)
    return rec.report(time.perf_counter() - t0)


def run_open_loop(
    url: str,
    *,
    rate: float = 200.0,
    duration: float = 5.0,
    specs: list[dict] | None = None,
    tenant: str = "default",
    status_every: int = 4,
    max_in_flight: int = 2000,
) -> LoadReport:
    """Fire requests at ``rate``/s on fresh connections until ``duration``.

    Offered load is independent of service latency (the open-loop
    model), bounded only by ``max_in_flight`` outstanding requests.
    Every ``status_every``-th request is a ``GET /status``; the rest
    submit from ``specs`` (status-only when ``specs`` is empty).
    """
    return asyncio.run(_run_open(
        url, rate=rate, duration=duration, specs=specs or [],
        tenant=tenant, status_every=status_every,
        max_in_flight=max_in_flight,
    ))
