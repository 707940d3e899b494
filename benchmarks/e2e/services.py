"""The two daemon workloads, driven over HTTP from this process.

Each daemon runs in its own process, started through its real CLI verb
(``campaign serve`` / ``session serve`` with ``--port 0``); for a traced
run ``launch.py serve`` installs the span wrappers first and then calls
the same CLI entry point.  Load is closed-loop: ``CLIENTS`` threads
(at most the number of CPUs), each with one keep-alive connection,
each sending its next request only after the previous one completed.

``campaign-http``
    Campaign service v2 with CLI defaults (2 workers, thread executor).
    Each client loops: ``POST /submit`` one spec, follow
    ``GET /jobs/<digest>/progress?interval=0.02`` to a terminal state,
    ``GET /result/<digest>``.  Specs: k in {3, 4}, n in [8, 48],
    trials in {4, 8}, engine ``count``; 25% of submissions repeat a
    digest that is already done.  Jobs are small, so HTTP, SQLite
    commits and the worker's poll wait dominate.  An operation is one
    job, from submit sent to result received.

``sessiond-http``
    The session daemon.  A cycle creates a free session (count, k=3,
    n in [120, 300], checkpoint interval 4096) and advances it in
    budgets of 16384 to its end, reads its result, lists its snapshots,
    forks at the median checkpoint and advances the fork, rewinds the
    parent there and advances it again, reads both results, creates two
    driven sessions on one recorded schedule (count against batch with
    ``mutate_rule=1``, n in [16, 32]), bisects them and deletes all four
    sessions; every tenth cycle of a client also sends ``POST /gc``
    that keeps live sessions' checkpoints.
    Engine work is small, so the snapshot store, state serialization
    and HTTP dominate.  An operation is one request.
"""

from __future__ import annotations

import random
import re
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from harness import (
    ROOT, Client, Daemon, Outcome, min_samples, nproc, percentile,
    proc_peak_rss_mb,
)

CLIENTS = 2
CAMPAIGN_REPEAT_SHARE = 0.25
CAMPAIGN_ORACLE_JOBS = 5
PROGRESS_INTERVAL = 0.02

SESSION_BUDGET = 16_384
SESSION_CHECKPOINT = 4_096
SESSION_GC_EVERY = 10
#: The bisect self-test mutates this canonical rule of the batch side.
SESSION_MUTATE_RULE = 1


def daemon_argv(verb: list[str], spans: Path | None) -> list[str]:
    """The daemon command line, through the tracing launcher if asked."""
    if spans is None:
        return [sys.executable, "-m", "repro.experiments.cli", *verb]
    launcher = str(ROOT / "benchmarks" / "e2e" / "launch.py")
    return [sys.executable, launcher, "serve", str(spans), *verb]


def campaign_verb(work: Path) -> list[str]:
    return ["campaign", "serve", "--db", str(work / "campaign.db"), "--port", "0"]


def session_verb(work: Path) -> list[str]:
    return ["session", "serve", "--store", str(work / "sessions.db"), "--port", "0"]


def _drive(daemon: Daemon, body, seconds: float, min_ops: int,
           unit_count) -> tuple[list[Client], float, float]:
    """Run ``body(client, index, keep_going)`` on :data:`CLIENTS` threads.

    ``keep_going()`` is true until ``seconds`` have passed and
    ``unit_count(clients)`` has reached ``min_ops``.  Returns the clients,
    the phase wall time and its start.
    """
    if CLIENTS > nproc():
        raise RuntimeError(
            f"{CLIENTS} load clients exceed the {nproc()} CPUs of this machine"
        )
    pool = [Client(daemon.url, f"c{i}") for i in range(CLIENTS)]
    errors: list[BaseException] = []
    t0 = time.perf_counter()
    deadline = t0 + seconds

    def keep_going() -> bool:
        return time.perf_counter() < deadline or unit_count(pool) < min_ops

    def target(i: int) -> None:
        try:
            body(pool[i], i, keep_going)
        except BaseException as exc:  # re-raised on the main thread
            errors.append(exc)

    threads = [threading.Thread(target=target, args=(i,)) for i in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    for c in pool:
        c.close()
    if errors:
        raise errors[0]
    return pool, wall, t0


# ----------------------------------------------------------------------
# campaign-http
# ----------------------------------------------------------------------
@dataclass(slots=True)
class Job:
    spec: dict
    digest: str | None
    fresh: bool
    t0: float
    t1: float
    progress_end: float
    ok: bool
    summary: dict | None


def _campaign_spec(rng: random.Random) -> dict:
    return {
        "protocol": "uniform-k-partition",
        "params": {"k": rng.choice((3, 4))},
        "n": rng.randint(8, 48),
        "trials": rng.choice((4, 8)),
        "engine": "count",
        "seed": rng.randrange(2**31),
    }


def run_campaign_http(seed: int, seconds: float, work: Path, *, min_ops: int,
                      spans: Path | None = None) -> Outcome:
    from repro.campaign.executor import execute_spec

    work.mkdir(parents=True, exist_ok=True)
    jobs: list[list[Job]] = [[] for _ in range(CLIENTS)]

    def body(client: Client, i: int, keep_going) -> None:
        rng = random.Random(f"{seed}:{i}")
        done: list[dict] = []
        while keep_going():
            fresh = not done or rng.random() >= CAMPAIGN_REPEAT_SHARE
            spec = _campaign_spec(rng) if fresh else rng.choice(done)
            t0 = time.perf_counter()
            status, submitted = client.call(
                "POST", "/submit", "POST /submit", {"specs": [spec]}
            )
            ok = status == 200
            digest = submitted["digests"][0] if ok else None
            summary = None
            progress_end = t0
            if ok:
                status, lines = client.call(
                    "GET", f"/jobs/{digest}/progress?interval={PROGRESS_INTERVAL}",
                    "GET /jobs/progress",
                )
                progress_end = client.log[-1].t1
                ok = status == 200 and bool(lines) and lines[-1].get("status") == "done"
            if ok:
                status, result = client.call(
                    "GET", f"/result/{digest}", "GET /result"
                )
                summary = result.get("summary") if status == 200 else None
                ok = summary is not None and summary.get("all_converged") is True
            jobs[i].append(Job(spec, digest, fresh, t0, time.perf_counter(),
                               progress_end, ok, summary))
            if ok and fresh:
                done.append(spec)

    daemon = Daemon.start(daemon_argv(campaign_verb(work), spans), work / "daemon.log")
    try:
        match = re.search(r"(\d+) worker", daemon.banner)
        workers = int(match.group(1)) if match else 0
        pool, wall, t0 = _drive(
            daemon, body, seconds, min_ops, lambda pool: sum(len(j) for j in jobs),
        )
        rss = proc_peak_rss_mb(daemon.proc.pid)
    finally:
        daemon.stop()
    all_jobs = [j for per_client in jobs for j in per_client]
    good = [j for j in all_jobs if j.ok]
    requests = [r for c in pool for r in c.log]
    out = Outcome(
        ops=len(good), wall_s=wall, latencies_ms=[(j.t1 - j.t0) * 1000 for j in good],
        peak_rss_mb=rss, requests=requests, window=(t0, t0 + wall),
    )
    for job in all_jobs:
        out.count(job.ok, f"job {job.digest} did not end done and converged")
    fresh = [j for j in good if j.fresh]
    for job in random.Random(seed).sample(fresh, min(CAMPAIGN_ORACLE_JOBS, len(fresh))):
        out.count(execute_spec(job.spec)["summary"] == job.summary,
                  f"job {job.digest} summary differs from execute_spec")
    out.info = {
        "trials_per_s": sum(j.spec["trials"] for j in good) / wall,
        "requests": len(requests),
        "disk_mb": sum(p.stat().st_size for p in work.glob("campaign.db*")) / 1e6,
    }
    plain = [r.ms for r in requests if r.route != "GET /jobs/progress"]
    if len(plain) >= min_samples(0.5):
        out.info["request_p50_ms"] = percentile(plain, 0.5)
    out.trace_inputs = {"jobs": all_jobs, "workers": workers}
    return out


# ----------------------------------------------------------------------
# sessiond-http
# ----------------------------------------------------------------------
@dataclass(slots=True)
class Cycle:
    t0: float
    t1: float
    results: list[dict]
    schedule: dict
    bisect: dict | None


def _advance_to_end(client: Client, sid: str) -> None:
    """Advance in fixed budgets until the session leaves ``running``."""
    while True:
        status, state = client.call(
            "POST", f"/sessions/{sid}/advance", "POST /sessions/advance",
            {"budget": SESSION_BUDGET},
        )
        if status != 200 or state["status"] != "running":
            return


def _cycle(client: Client, rng: random.Random, gc: bool) -> Cycle:
    from repro.conform.schedule import record_schedule
    from repro.protocols.registry import build_protocol

    n = rng.randint(120, 300)
    m = rng.randint(16, 32)
    schedule = record_schedule(
        build_protocol("uniform-k-partition", k=3), m, seed=rng.randrange(2**31),
        max_interactions=200_000,
    ).to_record()
    free = {
        "protocol": "uniform-k-partition", "params": {"k": 3}, "engine": "count",
        "mode": "free", "n": n, "seed": rng.randrange(2**31),
        "checkpoint_interval": SESSION_CHECKPOINT,
    }
    t0 = time.perf_counter()
    results: list[dict] = []
    bisect = None

    def call(method, path, route, body=None):
        status, payload = client.call(method, path, route, body)
        return payload if status == 200 else None

    created = call("POST", "/sessions", "POST /sessions", free)
    sids = []
    if created:
        sid = created["id"]
        sids.append(sid)
        _advance_to_end(client, sid)
        results.append(call("GET", f"/sessions/{sid}/result", "GET /sessions/result"))
        snaps = call("GET", f"/sessions/{sid}/snapshots", "GET /sessions/snapshots")
        if snaps and snaps["snapshots"]:
            at = snaps["snapshots"][len(snaps["snapshots"]) // 2]["interactions"]
            fork = call("POST", f"/sessions/{sid}/fork", "POST /sessions/fork", {"at": at})
            if fork:
                sids.append(fork["id"])
                _advance_to_end(client, fork["id"])
            call("POST", f"/sessions/{sid}/rewind", "POST /sessions/rewind", {"at": at})
            _advance_to_end(client, sid)
            results.append(call("GET", f"/sessions/{sid}/result", "GET /sessions/result"))
            if fork:
                results.append(call(
                    "GET", f"/sessions/{fork['id']}/result", "GET /sessions/result"
                ))
    driven = {"protocol": "uniform-k-partition", "params": {"k": 3},
              "mode": "driven", "schedule": schedule}
    a = call("POST", "/sessions", "POST /sessions", dict(driven, engine="count"))
    b = call("POST", "/sessions", "POST /sessions",
             dict(driven, engine="batch", mutate_rule=SESSION_MUTATE_RULE))
    if a and b:
        sids += [a["id"], b["id"]]
        bisect = call("POST", "/bisect", "POST /bisect", {"a": a["id"], "b": b["id"]})
    for sid in sids:
        call("DELETE", f"/sessions/{sid}", "DELETE /sessions")
    if gc:
        # keep_every=1 keeps every checkpoint of a live session (the other
        # client may be about to fork from one it just listed); what goes
        # is the history of deleted sessions.
        call("POST", "/gc", "POST /gc", {"keep_every": 1})
    return Cycle(t0, time.perf_counter(), results, schedule, bisect)


def _replay_counts(protocol, schedule: dict, steps: set[int]) -> dict[int, list[int]]:
    """Counts after each of ``steps`` scheduled pairs (name-level replay)."""
    space, table = protocol.space, protocol.transitions
    counts = list(schedule["initial_counts"])
    states = [space.names[i] for i, c in enumerate(counts) for _ in range(c)]
    out = {0: list(counts)} if 0 in steps else {}
    for t, (a, b) in enumerate(schedule["pairs"], start=1):
        p, q = states[a], states[b]
        p2, q2 = table.apply(p, q)
        if (p2, q2) != (p, q):
            states[a], states[b] = p2, q2
            for name, delta in ((p, -1), (q, -1), (p2, 1), (q2, 1)):
                counts[space.index(name)] += delta
        if t in steps:
            out[t] = list(counts)
    return out


def bisect_confirmed(schedule: dict, report: dict) -> bool:
    """Linear replay agrees with a reported first divergence.

    Index ``i`` must leave equal counts after ``i`` pairs and different
    counts after ``i + 1``; a ``null`` answer needs equal final counts.
    """
    from repro.conform.mutation import mutate_protocol
    from repro.protocols.registry import build_protocol

    pristine = build_protocol("uniform-k-partition", k=3)
    mutated = mutate_protocol(pristine, SESSION_MUTATE_RULE)
    i = report["first_divergence"]
    steps = {len(schedule["pairs"])} if i is None else {i, i + 1}
    ca = _replay_counts(pristine, schedule, steps)
    cb = _replay_counts(mutated, schedule, steps)
    if i is None:
        return all(ca[t] == cb[t] for t in steps)
    return ca[i] == cb[i] and ca[i + 1] != cb[i + 1]


def run_sessiond_http(seed: int, seconds: float, work: Path, *, min_ops: int,
                      spans: Path | None = None) -> Outcome:
    work.mkdir(parents=True, exist_ok=True)
    cycles: list[list[Cycle]] = [[] for _ in range(CLIENTS)]

    def body(client: Client, i: int, keep_going) -> None:
        rng = random.Random(f"{seed}:{i}")
        while keep_going():
            gc = len(cycles[i]) % SESSION_GC_EVERY == SESSION_GC_EVERY - 1
            cycles[i].append(_cycle(client, rng, gc))

    daemon = Daemon.start(daemon_argv(session_verb(work), spans), work / "daemon.log")
    try:
        pool, wall, t0 = _drive(
            daemon, body, seconds, min_ops, lambda pool: sum(len(c.log) for c in pool),
        )
        rss = proc_peak_rss_mb(daemon.proc.pid)
    finally:
        daemon.stop()
    requests = [r for c in pool for r in c.log]
    good = [r for r in requests if 200 <= r.status < 300]
    all_cycles = [c for per_client in cycles for c in per_client]
    out = Outcome(
        ops=len(good), wall_s=wall, latencies_ms=[r.ms for r in good],
        peak_rss_mb=rss, requests=requests, window=(t0, t0 + wall),
    )
    for r in requests:
        out.count(200 <= r.status < 300, f"{r.route} answered {r.status}")
    # Oracle: fork and rewind replay the parent's trajectory exactly, and
    # every bisect answer survives a linear replay.
    for cycle in all_cycles:
        finals = [
            (r["final_counts"], r["interactions"]) for r in cycle.results if r
        ]
        out.count(len(finals) == 3 and finals.count(finals[0]) == 3,
                  "fork or rewind did not reproduce the parent's run")
        out.count(
            cycle.bisect is not None and bisect_confirmed(cycle.schedule, cycle.bisect),
            "bisect answer not confirmed by linear replay",
        )
    out.info = {
        "cycles": len(all_cycles),
        "cycles_per_s": len(all_cycles) / wall,
        "divergences_found": sum(
            1 for c in all_cycles
            if c.bisect and c.bisect["first_divergence"] is not None
        ),
        "disk_mb": sum(p.stat().st_size for p in work.glob("sessions.db*")) / 1e6,
    }
    lat = [(c.t1 - c.t0) * 1000 for c in all_cycles]
    if len(lat) >= min_samples(0.5):
        out.info["cycle_p50_ms"] = percentile(lat, 0.5)
    return out
