"""Shared pieces of the end-to-end benchmark: paths, statistics,
child processes, resource readings and the HTTP client.

Nothing here runs at import time; every helper is called by
``run.py``, the workload modules or the tests.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import os
import re
import resource
import select
import signal
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Checkout root (``benchmarks/e2e`` sits two levels below it).
ROOT = Path(__file__).resolve().parents[2]
#: The program under test, run from source.
SRC = ROOT / "src"
#: Everything the benchmark writes: stores, daemon logs, span dumps,
#: the compiled-kernel cache and result files.  Ignored by git.
WORK = ROOT / ".bench_build" / "e2e"

#: A percentile is reported only with at least this many samples
#: beyond it (so a median needs 20 samples, a p95 needs 200).
SAMPLES_BEYOND = 10

_URL_RE = re.compile(r"http://[0-9.]+:[0-9]+")


class InsufficientSamples(RuntimeError):
    """A percentile was asked of too few samples to be trusted."""


def min_samples(q: float) -> int:
    """Fewest samples for which the ``q`` quantile has 10 beyond it."""
    return math.ceil(SAMPLES_BEYOND / (1.0 - q) - 1e-9)


def percentile(values: list[float], q: float) -> float:
    """The ``q`` quantile (linear interpolation between order statistics).

    Raises :class:`InsufficientSamples` unless at least
    :data:`SAMPLES_BEYOND` samples lie beyond the requested quantile.
    """
    if len(values) * (1.0 - q) + 1e-9 < SAMPLES_BEYOND:
        raise InsufficientSamples(
            f"p{q * 100:g} of {len(values)} samples has fewer than "
            f"{SAMPLES_BEYOND} samples beyond it"
        )
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median (the stability test)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def nproc() -> int:
    """CPUs this process may run on (the load-concurrency ceiling)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover — non-Linux
        return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Resources
# ----------------------------------------------------------------------
def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of another process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def dir_bytes(path: Path) -> int:
    """Total size of the regular files under ``path``."""
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts.

    Sources come from ``src/``; output is unbuffered so the harness can
    read the URL a daemon prints; :func:`confine` keeps what the program
    writes inside the checkout.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    env.update(confine())
    return env


def confine() -> dict[str, str]:
    """Environment that keeps the program inside the checkout.

    ``TMPDIR`` moves the compiled-kernel cache under :data:`WORK`; the
    git ceiling stops the ``git rev-parse`` the campaign store runs for
    provenance from searching above the checkout.
    """
    return {
        "TMPDIR": str(WORK / "tmp"),
        "GIT_CEILING_DIRECTORIES": str(ROOT.parent),
    }


def spawn(argv: list[str], log: Path) -> subprocess.Popen:
    """Start a child with stdout piped and stderr sent to ``log``."""
    log.parent.mkdir(parents=True, exist_ok=True)
    with log.open("ab") as err:
        return subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=err, env=child_env(),
            cwd=ROOT, text=True,
        )


def read_line(proc: subprocess.Popen, timeout: float) -> str:
    """The child's next stdout line; raises if it exits or stalls."""
    deadline = time.monotonic() + timeout
    while True:
        left = deadline - time.monotonic()
        if left <= 0:
            raise RuntimeError(f"child {proc.args!r} printed nothing in {timeout}s")
        ready, _, _ = select.select([proc.stdout], [], [], left)
        if ready:
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"child {proc.args!r} exited with {proc.wait()} before printing"
                )
            return line


def stop(proc: subprocess.Popen, timeout: float = 30.0) -> int:
    """Interrupt a child (Ctrl-C semantics), kill it if it lingers, reap it."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()
    return proc.returncode


@dataclass
class Daemon:
    """One running repro daemon started through its CLI verb."""

    proc: subprocess.Popen
    url: str
    banner: str

    @classmethod
    def start(cls, argv: list[str], log: Path, timeout: float = 60.0) -> "Daemon":
        """Start ``argv``, read the URL it prints, wait for ``/healthz``."""
        proc = spawn(argv, log)
        try:
            line = read_line(proc, timeout)
            match = _URL_RE.search(line)
            if match is None:
                raise RuntimeError(f"no URL in daemon banner {line!r}")
            daemon = cls(proc, match.group(0), line)
            daemon.wait_healthy(timeout)
        except BaseException:
            stop(proc)
            raise
        return daemon

    def wait_healthy(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        host, port = self.url[len("http://"):].split(":")
        while time.monotonic() < deadline:
            conn = http.client.HTTPConnection(host, int(port), timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.005)
        raise RuntimeError(f"{self.url} never answered /healthz")

    def stop(self) -> int:
        return stop(self.proc)


# ----------------------------------------------------------------------
# HTTP client
# ----------------------------------------------------------------------
@dataclass(slots=True)
class Request:
    """One client request as the client saw it."""

    rid: str
    route: str
    t0: float
    t1: float
    status: int

    @property
    def ms(self) -> float:
        return (self.t1 - self.t0) * 1000.0


@dataclass
class Client:
    """One keep-alive HTTP connection, used by one closed-loop client.

    Every request carries an ``X-Request-Id`` so a traced daemon's spans
    can be matched to the latency the client saw.  A response that
    closes the connection (the campaign progress stream does) makes
    the next request reconnect, so a client never holds more than one
    connection.
    """

    url: str
    name: str
    log: list[Request] = field(default_factory=list)

    def __post_init__(self) -> None:
        host, port = self.url[len("http://"):].split(":")
        self._conn = http.client.HTTPConnection(host, int(port), timeout=120)
        self._ids = itertools.count()

    def call(self, method: str, path: str, route: str, body: dict | None = None):
        """Send one request; returns ``(status, payload)``.

        ``payload`` is the decoded JSON object, or a list of objects for
        an ndjson stream.  Transport errors return status 0 and reset
        the connection; the caller counts them as failures.
        """
        rid = f"{self.name}-{next(self._ids)}"
        headers = {"X-Request-Id": rid}
        data = None
        if body is not None:
            data = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        t0 = time.perf_counter()
        try:
            self._conn.request(method, path, body=data, headers=headers)
            resp = self._conn.getresponse()
            raw = resp.read()
            status = resp.status
        except (OSError, http.client.HTTPException):
            self._conn.close()
            self.log.append(Request(rid, route, t0, time.perf_counter(), 0))
            return 0, None
        t1 = time.perf_counter()
        self.log.append(Request(rid, route, t0, t1, status))
        if resp.getheader("Content-Type", "").startswith("application/x-ndjson"):
            return status, [json.loads(x) for x in raw.splitlines() if x.strip()]
        return status, json.loads(raw) if raw else None

    def close(self) -> None:
        self._conn.close()


@dataclass
class Outcome:
    """What one measured phase of a workload produced.

    ``latencies_ms`` holds one sample per operation; ``info`` carries
    workload-specific numbers that are reported but not gated.  For a
    traced phase ``requests`` and ``trace_inputs`` feed the per-layer
    analysis.
    """

    ops: int
    wall_s: float
    latencies_ms: list[float]
    peak_rss_mb: float
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    requests: list[Request] = field(default_factory=list)
    trace_inputs: dict = field(default_factory=dict)
    window: tuple[float, float] = (0.0, 0.0)

    def count(self, ok: bool, what: str) -> None:
        """Record one attempted operation or check, naming it if it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.wall_s
