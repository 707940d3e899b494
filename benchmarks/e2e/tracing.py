"""Layer spans for the traced run, recorded from outside the program.

:func:`install` replaces public functions and methods of each layer of
``repro`` with thin wrappers that record one span per call: name,
start, end, the span that caused it, a key (job digest or request id)
and an optional value (bytes written, kernel status...).
The program itself is not edited.  Spans stay in memory and are written
once, when the benchmark (or a traced daemon) ends.

A span's *self time* is its duration minus the part of it that its
child spans cover.  :data:`LAYER_MAP` says which end-to-end metric each
per-layer metric should move, on which workload, and which workload
bypasses the layer.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import inspect
import itertools
import json
import time
from collections import defaultdict
from pathlib import Path

#: Fields of a span tuple.
ID, NAME, T0, T1, PARENT, KEY, VALUE = range(7)

_CURRENT = contextvars.ContextVar("e2e_span", default=-1)

WORKLOADS = ("fig3-campaign", "kernel-sweep", "campaign-http", "sessiond-http")
FIG3, KERNEL, CAMPAIGN, SESSIOND = WORKLOADS

#: Per-layer metric -> (end-to-end metric it should move, workloads that
#: do most of the layer's work, a workload that bypasses the layer).
#:
#: ``*_frac`` metrics are a layer's busy (or self) time as a share of
#: the measured phase; ``*_share`` metrics are a component's share of
#: the summed operation latency.  Both are ratios, so they compare
#: across run lengths and read 0 where a workload bypasses the layer.
#: The engine probes (kernel build, protocol compile, the engine
#: ablation and 2-worker scaling) do not depend on the workload and are
#: measured in every traced run.
LAYER_MAP: dict[str, tuple[str, tuple[str, ...], str | None]] = {
    "engine.count_based.busy_frac": ("ops_per_s", (FIG3,), KERNEL),
    "engine.count_based.chain_init_frac": ("ops_per_s", (FIG3,), None),
    "engine.count_based.effective_ratio": ("ops_per_s", (FIG3,), KERNEL),
    "engine.kernels.busy_frac": ("ops_per_s", (KERNEL,), FIG3),
    "engine.kernels.calls": ("ops_per_s", (KERNEL,), FIG3),
    "engine.kernels.refills": ("ops_per_s", (KERNEL,), FIG3),
    "engine.jit.wrapper_frac": ("ops_per_s", (KERNEL,), FIG3),
    "engine.kernels.build_ms": ("setup_s", (KERNEL,), FIG3),
    "core.compile_ms": ("setup_s", (FIG3, KERNEL), CAMPAIGN),
    "engine.session.snapshot_frac": ("op_latency_p50_ms", (SESSIOND,), KERNEL),
    "engine.session.restore_frac": ("op_latency_p50_ms", (SESSIOND,), KERNEL),
    "engine.session.serialize_bytes": ("op_latency_p50_ms", (SESSIOND,), KERNEL),
    "engine.runner.self_frac": ("ops_per_s", (KERNEL, CAMPAIGN), SESSIOND),
    "campaign.executor.self_frac": ("ops_per_s", (FIG3,), KERNEL),
    "campaign.store.save_checkpoint_frac": ("ops_per_s", (FIG3,), CAMPAIGN),
    "campaign.store.save_checkpoint.calls": ("ops_per_s", (FIG3,), CAMPAIGN),
    "campaign.store.save_checkpoint.bytes": ("ops_per_s", (FIG3,), CAMPAIGN),
    "campaign.store.claim_next_frac": ("op_latency_p50_ms", (CAMPAIGN,), KERNEL),
    "campaign.store.mark_done_frac": ("op_latency_p50_ms", (CAMPAIGN,), KERNEL),
    "campaign.store.submit_many_frac": ("op_latency_p50_ms", (CAMPAIGN,), KERNEL),
    "campaign.store.get_frac": ("op_latency_p50_ms", (CAMPAIGN,), FIG3),
    "campaign.store.load_checkpoint_frac": ("op_latency_p50_ms", (CAMPAIGN,), KERNEL),
    "campaign.store.claim_hit_ratio": ("op_latency_p50_ms", (CAMPAIGN,), KERNEL),
    "campaign.workers.busy_frac": ("ops_per_s", (CAMPAIGN,), FIG3),
    "campaign.http.overhead_share": ("op_latency_p50_ms", (CAMPAIGN,), FIG3),
    "campaign.queue_wait_share": ("op_latency_p50_ms", (CAMPAIGN,), FIG3),
    "campaign.engine_share": ("op_latency_p50_ms", (CAMPAIGN,), FIG3),
    "campaign.notify_lag_share": ("op_latency_p50_ms", (CAMPAIGN,), FIG3),
    "io.columnar.append_frac": ("ops_per_s", (FIG3,), CAMPAIGN),
    "io.columnar.flush_frac": ("ops_per_s", (FIG3,), CAMPAIGN),
    "io.columnar.group_reduce_frac": ("ops_per_s", (FIG3,), CAMPAIGN),
    "io.columnar.flushes": ("ops_per_s", (FIG3,), CAMPAIGN),
    "io.columnar.bytes": ("ops_per_s", (FIG3,), CAMPAIGN),
    "sessiond.http.overhead_share": ("op_latency_p50_ms", (SESSIOND,), CAMPAIGN),
    "sessiond.bisect_share": ("op_latency_p50_ms", (SESSIOND,), CAMPAIGN),
    "sessiond.bisect.probes": ("op_latency_p50_ms", (SESSIOND,), CAMPAIGN),
    "sessiond.store.put_snapshot_share": ("op_latency_p50_ms", (SESSIOND,), CAMPAIGN),
    "sessiond.store.put_snapshot.bytes": ("op_latency_p50_ms", (SESSIOND,), CAMPAIGN),
    "sessiond.store.gc_share": ("op_latency_p50_ms", (SESSIOND,), CAMPAIGN),
    "sessiond.store.gc.bytes_freed": ("op_latency_p50_ms", (SESSIOND,), CAMPAIGN),
    "engine.parallel.speedup_2w": ("ops_per_s", (KERNEL,), None),
    "engine.runner.pool_speedup_2w": ("ops_per_s", (KERNEL,), None),
    "bench.attributed_frac": ("ops_per_s", WORKLOADS, None),
    "obs.trace_overhead_frac": ("ops_per_s", WORKLOADS, None),
}

#: Session manager calls whose share of request latency is reported.
MANAGER_CALLS = ("create", "advance", "fork", "rewind", "result", "delete")
for _call in MANAGER_CALLS:
    LAYER_MAP[f"sessiond.manager.{_call}_share"] = ("op_latency_p50_ms", (SESSIOND,), CAMPAIGN)

#: Registry engines timed by the engine ablation, with the scheduler
#: each needs.
ABLATION_ENGINES = {
    "agent": None, "batch": None, "batch-jit": None, "count": None,
    "count-jit": None, "ensemble": None, "ensemble-parallel": None,
    "graph": "graph:complete", "hybrid": None,
}
for _engine in ABLATION_ENGINES:
    LAYER_MAP[f"engine.ablation.{_engine}.trial_ms"] = ("ops_per_s", (KERNEL,), None)


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
class Recorder:
    """In-memory span store.

    A span is the tuple ``(id, name, t0, t1, parent, key, value)`` with
    ``time.perf_counter`` times — ``CLOCK_MONOTONIC`` on Linux, so the
    times of a daemon and of the client that drives it are comparable.
    The parent is the innermost span open in the same thread or asyncio
    task (``-1`` when none).
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._undo: list[tuple[object, str, object]] = []

    def wrap_fn(self, fn, name: str, *, key=None, value=None, before=None):
        """A span-recording wrapper around ``fn``.

        ``key(args, kwargs, result)`` and ``value(args, kwargs, result,
        pre)`` are evaluated after the call, outside the span's time;
        ``before(args, kwargs)`` runs just before the call and its
        result reaches ``value`` as ``pre``.  ``result`` is ``None``
        when the call raised.
        """
        spans, ids, current = self.spans, self._ids, _CURRENT
        clock = time.perf_counter

        def finish(sid, parent, t0, t1, args, kwargs, result, pre):
            spans.append((
                sid, name, t0, t1, parent,
                key(args, kwargs, result) if key else None,
                value(args, kwargs, result, pre) if value else None,
            ))

        if inspect.iscoroutinefunction(fn):
            async def wrapper(*args, **kwargs):
                sid = next(ids)
                parent = current.get()
                token = current.set(sid)
                pre = before(args, kwargs) if before else None
                result = None
                t0 = clock()
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    t1 = clock()
                    current.reset(token)
                    finish(sid, parent, t0, t1, args, kwargs, result, pre)
        else:
            def wrapper(*args, **kwargs):
                sid = next(ids)
                parent = current.get()
                token = current.set(sid)
                pre = before(args, kwargs) if before else None
                result = None
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    t1 = clock()
                    current.reset(token)
                    finish(sid, parent, t0, t1, args, kwargs, result, pre)

        return functools.wraps(fn)(wrapper)

    def patch(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value``, remembering the original."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, name: str, **hooks) -> None:
        """Replace ``owner.attr`` (module function or class method)."""
        self.patch(owner, attr, self.wrap_fn(getattr(owner, attr), name, **hooks))

    def restore(self) -> None:
        """Put every patched attribute back; recorded spans are kept."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


def load_spans(path: Path) -> list[tuple]:
    return [tuple(s) for s in json.loads(path.read_text())]


def in_window(spans: list[tuple], window: tuple[float, float]) -> list[tuple]:
    """Spans that started inside ``window``."""
    lo, hi = window
    return [s for s in spans if lo <= s[T0] <= hi]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[T0], s[T1]))
    return {
        s[ID]: (s[T1] - s[T0]) - _covered(children.get(s[ID], []), s[T0], s[T1])
        for s in spans
    }


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def _digest_arg(args, kwargs, result):
    return args[1] if len(args) > 1 else None


def _size(args, kwargs, result, pre):
    return len(result) if result is not None else 0


def install(rec: Recorder) -> None:
    """Wrap every layer boundary the benchmark attributes time to."""
    from repro.campaign import executor, service_v2, store as cstore
    from repro.campaign.spec import JobSpec
    from repro.engine import count_based, jit, kernels, runner, session
    from repro.io import columnar
    from repro.sessiond import manager, service, store as sstore

    # Engine: Python jump chain, compiled kernels and their wrapper.
    rec.wrap(count_based.JumpChain, "__init__", "engine.count_based.chain_init")
    rec.wrap(
        count_based.JumpChain, "advance", "engine.count_based.advance",
        before=lambda a, k: (a[1].interactions, a[1].effective),
        value=lambda a, k, r, pre: (
            a[1].interactions - pre[0], a[1].effective - pre[1]
        ),
    )
    rec.wrap(jit.KernelJumpChain, "__init__", "engine.jit.chain_init")
    rec.wrap(jit.KernelJumpChain, "advance", "engine.jit.advance")
    # Kernel calls record their return status (0 = refill).  The active
    # kernel set is wrapped when it is built, so tracing forces no build.
    build = kernels._build

    def traced_kernels(ks):
        return dataclasses.replace(
            ks,
            jump_chain=rec.wrap_fn(
                ks.jump_chain, "engine.kernels.call", value=lambda a, k, r, pre: r
            ),
            pair_block=rec.wrap_fn(
                ks.pair_block, "engine.kernels.call", value=lambda a, k, r, pre: r
            ),
        )

    rec.patch(kernels, "_build", lambda mode: traced_kernels(build(mode)))
    if kernels._ACTIVE is not None:
        rec.patch(kernels, "_ACTIVE", traced_kernels(kernels._ACTIVE))
    rec.wrap(session.EngineSession, "snapshot", "engine.session.snapshot")
    rec.wrap(session.EngineSession, "restore", "engine.session.restore")
    rec.wrap(session.SessionState, "to_bytes", "engine.session.to_bytes", value=_size)

    # Runner: run_trials and the shared finalize tail.
    rec.wrap(runner, "run_trials", "engine.runner.run_trials")
    finalize = rec.wrap_fn(runner.finalize_trials, "engine.runner.finalize")
    rec.patch(runner, "finalize_trials", finalize)
    rec.patch(executor, "finalize_trials", finalize)

    # Campaign: executor, store, daemon routing.
    rec.wrap(executor, "run_campaign", "campaign.executor.run_campaign")
    rec.wrap(
        executor, "execute_spec_resumable", "campaign.executor.execute_resumable",
        key=lambda a, k, r: k.get("digest"),
    )
    execute = rec.wrap_fn(
        executor.execute_spec, "campaign.executor.execute",
        key=lambda a, k, r: JobSpec.from_dict(a[0]).digest,
    )
    rec.patch(executor, "execute_spec", execute)
    rec.patch(service_v2, "execute_spec", execute)
    for method in ("mark_done", "get", "load_checkpoint"):
        rec.wrap(cstore.CampaignStore, method, f"campaign.store.{method}", key=_digest_arg)
    rec.wrap(
        cstore.CampaignStore, "save_checkpoint", "campaign.store.save_checkpoint",
        key=_digest_arg,
        value=lambda a, k, r, pre: len(k.get("session") or b""),
    )
    rec.wrap(
        cstore.CampaignStore, "submit_many", "campaign.store.submit_many",
        key=lambda a, k, r: a[1][0].digest if a[1] else None,
    )
    rec.wrap(
        cstore.CampaignStore, "claim_next", "campaign.store.claim_next",
        key=lambda a, k, r: r.digest if r is not None else None,
        value=lambda a, k, r, pre: 0 if r is None else 1,
    )
    rec.wrap(
        service_v2.AsyncCampaignService, "_route", "campaign.service.route",
        key=lambda a, k, r: a[4].get("x-request-id"),
    )

    # Columnar sink and query.
    rec.wrap(columnar.ShardWriter, "append_keyed", "io.columnar.append")
    rec.wrap(columnar.ShardWriter, "flush", "io.columnar.flush")
    rec.wrap(columnar, "group_reduce", "io.columnar.group_reduce")

    # Session daemon: HTTP handler, service, manager, bisect, store.
    make_handler = service._make_handler

    def traced_handler(svc):
        cls = make_handler(svc)
        for verb in ("do_GET", "do_POST", "do_DELETE"):
            rec.wrap(
                cls, verb, "sessiond.http.handler",
                key=lambda a, k, r: a[0].headers.get("X-Request-Id"),
            )
        return cls

    rec.patch(service, "_make_handler", traced_handler)
    for method in ("handle_get", "handle_post", "handle_delete"):
        rec.wrap(service.SessionService, method, "sessiond.service.handle")
    for method in (*MANAGER_CALLS, "counts_at"):
        rec.wrap(manager.SessionManager, method, f"sessiond.manager.{method}")
    rec.wrap(service, "bisect_divergence", "sessiond.bisect")
    rec.wrap(sstore.SnapshotStore, "put_snapshot", "sessiond.store.put_snapshot")
    rec.wrap(
        sstore.SnapshotStore, "gc", "sessiond.store.gc",
        value=lambda a, k, r, pre: r["bytes_freed"] if r else 0,
    )


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
class SpanIndex:
    """Spans grouped by name, with self times."""

    def __init__(self, spans: list[tuple]) -> None:
        self.spans = spans
        self.by_id = {s[ID]: s for s in spans}
        self.selfs = self_times(spans)
        self.by_name: dict[str, list[tuple]] = defaultdict(list)
        for s in spans:
            self.by_name[s[NAME]].append(s)

    def named(self, name: str) -> list[tuple]:
        return self.by_name.get(name, [])

    def total_s(self, *names: str) -> float:
        return sum(s[T1] - s[T0] for n in names for s in self.named(n))

    def self_s(self, *names: str) -> float:
        return sum(self.selfs[s[ID]] for n in names for s in self.named(n))

    def top_level_s(self) -> float:
        return sum(s[T1] - s[T0] for s in self.spans if s[PARENT] < 0)


def layer_metrics(ix: SpanIndex, wall: float) -> dict[str, float]:
    """Per-layer metrics that follow from the spans and the phase time."""
    m: dict[str, float] = {}
    chain = ix.named("engine.count_based.advance")
    steps = sum(s[VALUE][0] for s in chain)
    m["engine.count_based.busy_frac"] = ix.self_s("engine.count_based.advance") / wall
    m["engine.count_based.chain_init_frac"] = (
        ix.self_s("engine.count_based.chain_init") / wall
    )
    m["engine.count_based.effective_ratio"] = (
        sum(s[VALUE][1] for s in chain) / steps if steps else 0.0
    )
    calls = ix.named("engine.kernels.call")
    m["engine.kernels.busy_frac"] = ix.total_s("engine.kernels.call") / wall
    m["engine.kernels.calls"] = len(calls)
    m["engine.kernels.refills"] = sum(1 for s in calls if s[VALUE] == 0)
    m["engine.jit.wrapper_frac"] = (
        ix.self_s("engine.jit.advance", "engine.jit.chain_init") / wall
    )
    m["engine.session.snapshot_frac"] = ix.total_s("engine.session.snapshot") / wall
    m["engine.session.restore_frac"] = ix.total_s("engine.session.restore") / wall
    m["engine.session.serialize_bytes"] = sum(
        s[VALUE] for s in ix.named("engine.session.to_bytes")
    )
    m["engine.runner.self_frac"] = (
        ix.self_s("engine.runner.run_trials", "engine.runner.finalize") / wall
    )
    m["campaign.executor.self_frac"] = ix.self_s(
        "campaign.executor.execute", "campaign.executor.execute_resumable",
        "campaign.executor.run_campaign",
    ) / wall
    saves = ix.named("campaign.store.save_checkpoint")
    m["campaign.store.save_checkpoint_frac"] = (
        ix.total_s("campaign.store.save_checkpoint") / wall
    )
    m["campaign.store.save_checkpoint.calls"] = len(saves)
    m["campaign.store.save_checkpoint.bytes"] = sum(s[VALUE] for s in saves)
    for method in ("claim_next", "mark_done", "submit_many", "get", "load_checkpoint"):
        m[f"campaign.store.{method}_frac"] = ix.total_s(f"campaign.store.{method}") / wall
    claims = ix.named("campaign.store.claim_next")
    m["campaign.store.claim_hit_ratio"] = (
        sum(s[VALUE] for s in claims) / len(claims) if claims else 0.0
    )
    m["io.columnar.append_frac"] = ix.self_s("io.columnar.append") / wall
    m["io.columnar.flush_frac"] = ix.total_s("io.columnar.flush") / wall
    m["io.columnar.group_reduce_frac"] = ix.total_s("io.columnar.group_reduce") / wall
    m["io.columnar.flushes"] = len(ix.named("io.columnar.flush"))
    m["sessiond.bisect.probes"] = len(ix.named("sessiond.manager.counts_at"))
    put_ids = {s[ID] for s in ix.named("sessiond.store.put_snapshot")}
    m["sessiond.store.put_snapshot.bytes"] = sum(
        s[VALUE] for s in ix.named("engine.session.to_bytes") if s[PARENT] in put_ids
    )
    m["sessiond.store.gc.bytes_freed"] = sum(
        s[VALUE] for s in ix.named("sessiond.store.gc")
    )
    return m


def _matched_share(requests, server_ms: dict[str, float]) -> float:
    """Share of client latency whose request a server span was found for."""
    total = sum(r.ms for r in requests)
    matched = sum(r.ms for r in requests if r.rid in server_ms)
    return matched / total if total else 0.0


def campaign_http_metrics(ix: SpanIndex, out) -> dict[str, float]:
    """Where campaign job latency goes, as shares of the summed latency.

    Request spans carry the client's request id, store and executor
    spans the job digest.  HTTP overhead is client latency minus the
    daemon's routing time for the same request; a job's queue wait runs
    from the end of the submit that enqueued it to the end of the claim
    that took it; its notify lag from the end of ``mark_done`` to the
    moment the client read the terminal progress line.
    """
    route_ms = {
        s[KEY]: (s[T1] - s[T0]) * 1000.0
        for s in ix.named("campaign.service.route") if s[KEY]
    }
    submitted: dict[str, list[float]] = defaultdict(list)
    for s in ix.named("campaign.store.submit_many"):
        submitted[s[KEY]].append(s[T1])
    wait = 0.0
    for s in ix.named("campaign.store.claim_next"):
        before = [t for t in submitted.get(s[KEY], ()) if t <= s[T1]]
        if s[KEY] and before:
            wait += s[T1] - max(before)
    done = {s[KEY]: s[T1] for s in ix.named("campaign.store.mark_done")}
    jobs = out.trace_inputs["jobs"]
    lag = sum(
        j.progress_end - done[j.digest]
        for j in jobs if j.ok and j.fresh and j.digest in done
    )
    total_s = sum(j.t1 - j.t0 for j in jobs)
    workers = out.trace_inputs["workers"]
    overhead_ms = sum(r.ms - route_ms[r.rid] for r in out.requests if r.rid in route_ms)
    return {
        "campaign.http.overhead_share": overhead_ms / 1000.0 / total_s,
        "campaign.queue_wait_share": wait / total_s,
        "campaign.engine_share": ix.total_s("campaign.executor.execute") / total_s,
        "campaign.notify_lag_share": lag / total_s,
        "campaign.workers.busy_frac": (
            ix.total_s("campaign.executor.execute") / (workers * out.wall_s)
            if workers else 0.0
        ),
        "bench.attributed_frac": _matched_share(out.requests, route_ms),
    }


def sessiond_http_metrics(ix: SpanIndex, out) -> dict[str, float]:
    """Where session-daemon request latency goes, as shares of the
    summed latency.  HTTP overhead is client latency minus the time
    ``SessionService.handle_*`` spent on the same request."""
    handle_ms = {}
    for s in ix.named("sessiond.service.handle"):
        parent = ix.by_id.get(s[PARENT])
        if parent is not None and parent[KEY]:
            handle_ms[parent[KEY]] = (s[T1] - s[T0]) * 1000.0
    total_s = sum(r.ms for r in out.requests) / 1000.0
    m = {
        "sessiond.http.overhead_share": sum(
            r.ms - handle_ms[r.rid] for r in out.requests if r.rid in handle_ms
        ) / 1000.0 / total_s,
        "sessiond.bisect_share": ix.total_s("sessiond.bisect") / total_s,
        "sessiond.store.put_snapshot_share": (
            ix.total_s("sessiond.store.put_snapshot") / total_s
        ),
        "sessiond.store.gc_share": ix.total_s("sessiond.store.gc") / total_s,
        "bench.attributed_frac": _matched_share(out.requests, handle_ms),
    }
    for call in MANAGER_CALLS:
        m[f"sessiond.manager.{call}_share"] = (
            ix.total_s(f"sessiond.manager.{call}") / total_s
        )
    return m


def in_process_metrics(ix: SpanIndex, out) -> dict[str, float]:
    """Share of a figure workload's measured time inside layer spans."""
    return {"bench.attributed_frac": ix.top_level_s() / out.wall_s}
