"""Lockstep differential execution of one schedule through every engine.

The engine paths agree *in law* but not bit-for-bit: the count, hybrid
and ensemble engines consume randomness as a jump chain, so seeding
them identically to the agent engines cannot line trajectories up.
What they all share is the transition-application data path — scalar
``delta_list`` lookups (agent), ``delta_flat`` with incremental active
weights (batch), interaction classes with Fenwick-indexed weights
(count), the batch-to-count hand-off (hybrid), the vectorized
class/weight matrices (ensemble), and the sessions behind the
``-jit`` names (count-jit, batch-jit), which share the class tables
and flat transition arrays the compiled kernels consume.  The differ replays one recorded
:class:`~repro.conform.schedule.InteractionSchedule` through the
**real engine sessions** — every engine's
:meth:`~repro.engine.session.EngineSession.apply_scheduled` pushes one
externally chosen interaction through the engine's actual state and
weight bookkeeping — and diffs the count vectors against the
compilation-free name-level oracle after every step.  (Earlier
revisions maintained a hand-written replica of each data path here;
those replicas could drift from the engines they imitated, which is
exactly the class of bug a differ exists to catch.)

Any disagreement — a pair one path thinks is null and another thinks
is effective, a drifting count vector, or broken internal weight
bookkeeping (:meth:`~repro.engine.session.EngineSession.audit`) — is
reported as a :class:`Divergence`, and a minimal reproducer (the
schedule prefix up to the divergent step) is dumped through
:class:`~repro.obs.trace.TraceWriter` so the failure can be replayed
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Sequence

from ..core.errors import SimulationError
from ..core.protocol import Protocol
from ..core.rng import SeedLike, ensure_generator
from ..engine.ensemble import EnsembleEngine
from ..engine.registry import build_engine
from ..engine.session import EngineSession
from ..obs.trace import TraceWriter
from ..scheduling.base import Scheduler
from ..scheduling.spec import SchedulerSpec
from .invariants import Invariant, check_counts, invariant_pack
from .schedule import InteractionSchedule, ReferenceInterpreter, record_schedule

__all__ = [
    "Divergence",
    "DiffReport",
    "run_differential",
    "start_driven",
    "write_reproducer",
    "ENGINE_PATHS",
]

#: Engine data paths a schedule can drive, in canonical order: the
#: differ's default set and the engines of driven sessiond sessions.
#: ``ensemble-parallel`` has no path of its own — its data path is the
#: ensemble engine's, shard by shard.  The kernel tiers drive the same
#: class tables and flat transition arrays their compiled kernels
#: consume.
ENGINE_PATHS = (
    "agent",
    "batch",
    "count",
    "hybrid",
    "ensemble",
    "count-jit",
    "batch-jit",
    "graph",
)


def start_driven(
    engine: str, protocol: Protocol, initial_counts: Sequence[int]
) -> EngineSession:
    """A session of engine path ``engine``, ready for ``apply_scheduled``.

    The ensemble engine is pinned to its pure vectorized path
    (``finish_threshold=0``): its scalar-finisher hand-off does not
    accept external schedules.  Driven sessions never sample pairs, so
    the graph path's topology is irrelevant and the complete graph
    stands in, and the seed is irrelevant because driven application
    consumes no engine randomness.
    """
    if engine not in ENGINE_PATHS:
        raise SimulationError(
            f"engine {engine!r} does not support driven execution; "
            f"choose from {list(ENGINE_PATHS)}"
        )
    built = (
        EnsembleEngine(finish_threshold=0)
        if engine == "ensemble"
        else build_engine(engine)
    )
    return built.start(protocol, initial_counts=list(initial_counts), seed=0)


class _DrivenEngine:
    """One engine path, driven through its real session.

    ``apply_scheduled`` feeds the oracle's chosen interaction through
    the engine's genuine data structures (agent arrays, incremental
    weights, Fenwick trees, vector matrices); ``audit`` asks the
    session to re-derive its own bookkeeping from first principles.
    For the hybrid path, the batch-to-count hand-off is forced at
    ``switch_at`` so every differential run exercises both phases and
    the state transfer between them.
    """

    def __init__(
        self,
        name: str,
        protocol: Protocol,
        counts0: Sequence[int],
        *,
        switch_at: int | None = None,
    ) -> None:
        self.name = name
        self._switch_at = switch_at
        self._session = start_driven(name, protocol, counts0)

    @property
    def counts(self) -> list[int]:
        return list(self._session.counts)

    def step(self, index: int, a: int, b: int, p: int, q: int) -> bool:
        if self._switch_at is not None and index >= self._switch_at:
            self._session.switch_now()
        return self._session.apply_scheduled(a, b, p, q)

    def check(self) -> str | None:
        return self._session.audit()


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class Divergence:
    """First observed disagreement between an engine path and the oracle."""

    engine: str
    #: 0-based index into the schedule's pair list.
    step: int
    pair: tuple[int, int]
    #: "effectiveness" | "counts" | "consistency" | "invariant"
    kind: str
    detail: str
    reference_counts: list[int]
    engine_counts: list[int] | None

    def to_record(self) -> dict:
        return {
            "engine": self.engine,
            "step": int(self.step),
            "pair": [int(self.pair[0]), int(self.pair[1])],
            "kind": self.kind,
            "detail": self.detail,
            "reference_counts": [int(c) for c in self.reference_counts],
            "engine_counts": (
                None
                if self.engine_counts is None
                else [int(c) for c in self.engine_counts]
            ),
        }


@dataclass(slots=True)
class DiffReport:
    """Outcome of one differential run."""

    protocol: str
    n: int
    engines: list[str]
    steps_replayed: int
    effective_steps: int
    divergence: Divergence | None = None
    invariant_violations: list[str] = field(default_factory=list)
    reproducer_path: str | None = None

    @property
    def ok(self) -> bool:
        return self.divergence is None and not self.invariant_violations

    def summary(self) -> str:
        head = (
            f"{self.protocol} n={self.n}: replayed {self.steps_replayed} "
            f"interactions ({self.effective_steps} effective) through "
            f"{len(self.engines)} engine path(s)"
        )
        if self.ok:
            return head + " — no divergence"
        lines = [head]
        if self.divergence is not None:
            d = self.divergence
            lines.append(
                f"  DIVERGENCE [{d.kind}] engine={d.engine} step={d.step} "
                f"pair={d.pair}: {d.detail}"
            )
        for v in self.invariant_violations:
            lines.append(f"  INVARIANT: {v}")
        if self.reproducer_path:
            lines.append(f"  reproducer: {self.reproducer_path}")
        return "\n".join(lines)


def write_reproducer(
    path: str | Path,
    schedule: InteractionSchedule,
    divergence: Divergence,
    meta: dict,
) -> str:
    """Write the minimal reproducer trace of a divergence to ``path``.

    The trace holds the divergence, then the schedule prefix up to and
    including the divergent step; ``meta`` heads the file.
    """
    with TraceWriter(path, meta=meta) as writer:
        writer.write({"type": "conform_divergence", **divergence.to_record()})
        writer.write(
            {
                "type": "conform_schedule",
                **schedule.prefix(divergence.step + 1).to_record(),
            }
        )
    return str(path)


# ----------------------------------------------------------------------
# The differential executor
# ----------------------------------------------------------------------
def run_differential(
    protocol: Protocol,
    n: int | None = None,
    *,
    seed: SeedLike = None,
    schedule: InteractionSchedule | None = None,
    engines: Sequence[str] | None = None,
    max_interactions: int = 200_000,
    check_invariants: bool = True,
    invariants: Sequence[Invariant] | None = None,
    reference_protocol: Protocol | None = None,
    reproducer_dir: str | Path | None = None,
    stride: int = 1,
    scheduler: str | SchedulerSpec | Scheduler | None = None,
) -> DiffReport:
    """Replay one schedule through every engine data path and diff.

    Parameters
    ----------
    protocol:
        The protocol whose *compiled* tables the engine replicas use.
    schedule:
        A recorded schedule to replay; when omitted, one is recorded
        from ``reference_protocol`` (default: ``protocol``) with
        ``record_schedule(n=n, seed=seed, max_interactions=...)``.
    scheduler:
        Scheduler driving the recorded schedule: a name
        (``"graph:cycle"``, ``"roundrobin"``, ...), a parsed spec, or a
        live :class:`~repro.scheduling.base.Scheduler` instance.  Only
        the *recording* changes — the replay is scheduler-agnostic, so
        this is how the (protocol, fairness, graph) grid reaches every
        engine data path.  Ignored when ``schedule`` is supplied.
    engines:
        Engine paths to replicate, default all of :data:`ENGINE_PATHS`.
    check_invariants:
        Also enforce the protocol's invariant pack on the oracle
        trajectory (every effective step plus the endpoints).
    invariants:
        Explicit pack to enforce instead of
        :func:`~repro.conform.invariants.invariant_pack`.
    reference_protocol:
        Protocol driving the name-level oracle.  Passing a pristine
        protocol here while ``protocol`` is a mutated copy is how the
        mutation self-test proves the differ catches planted bugs.
    reproducer_dir:
        Directory for the divergence reproducer trace; None disables
        the dump.
    stride:
        Compare full count vectors on every ``stride``-th effective
        step (effectiveness verdicts are compared on *every* step, and
        the terminal configuration is always compared).
    """
    if stride < 1:
        raise SimulationError(f"stride must be positive, got {stride}")
    reference = reference_protocol if reference_protocol is not None else protocol
    if reference.num_states != protocol.num_states:
        raise SimulationError(
            "reference protocol and protocol under test have different "
            f"state counts ({reference.num_states} vs {protocol.num_states})"
        )
    if schedule is None:
        sched_obj: Scheduler | None = None
        if scheduler is not None and not isinstance(scheduler, Scheduler):
            spec = SchedulerSpec.parse(scheduler)
            if not spec.is_uniform:
                if n is None:
                    raise SimulationError(
                        "recording with a named scheduler needs an explicit n"
                    )
                sched_obj = spec.build(n, ensure_generator(seed))
        elif isinstance(scheduler, Scheduler):
            sched_obj = scheduler
        schedule = record_schedule(
            reference,
            n,
            seed=seed,
            max_interactions=max_interactions,
            scheduler=sched_obj,
        )
    if len(schedule.initial_counts) != protocol.num_states:
        raise SimulationError(
            f"schedule has {len(schedule.initial_counts)} states, protocol "
            f"under test has {protocol.num_states}"
        )

    names = engines if engines is not None else list(ENGINE_PATHS)
    unknown = [e for e in names if e not in ENGINE_PATHS]
    if unknown:
        raise SimulationError(
            f"unknown engine path(s) {unknown}; choose from {list(ENGINE_PATHS)}"
        )

    counts0 = schedule.initial_counts
    appliers = [
        _DrivenEngine(
            name,
            protocol,
            counts0,
            switch_at=max(1, len(schedule.pairs) // 2) if name == "hybrid" else None,
        )
        for name in names
    ]

    # The oracle, laid out as record_schedule laid out the recording.
    oracle = ReferenceInterpreter.at(reference, counts0)
    ref_counts = oracle.counts
    state_names = reference.space.names

    pack: list[Invariant] = []
    if check_invariants:
        pack = (
            list(invariants)
            if invariants is not None
            else invariant_pack(reference, schedule.n)
        )

    report = DiffReport(
        protocol=schedule.protocol,
        n=schedule.n,
        engines=list(names),
        steps_replayed=0,
        effective_steps=0,
    )

    def finish(divergence: Divergence | None) -> DiffReport:
        report.divergence = divergence
        if divergence is not None and reproducer_dir is not None:
            name = f"diverge-{schedule.protocol}-n{schedule.n}-step{divergence.step}"
            report.reproducer_path = write_reproducer(
                Path(reproducer_dir) / f"{name}.jsonl",
                schedule,
                divergence,
                {
                    "kind": "conform-reproducer",
                    "engine": divergence.engine,
                    "divergence_kind": divergence.kind,
                },
            )
        return report

    if pack:
        problems = check_counts(pack, ref_counts)
        if problems:
            report.invariant_violations.extend(problems)
            return finish(
                Divergence(
                    engine="reference",
                    step=-1,
                    pair=(-1, -1),
                    kind="invariant",
                    detail="; ".join(problems),
                    reference_counts=list(ref_counts),
                    engine_counts=None,
                )
            )

    effective_since_compare = 0
    for step, (a, b) in enumerate(schedule.pairs):
        report.steps_replayed = step + 1
        p_idx, q_idx, ref_effective = oracle.step(a, b)
        if ref_effective:
            report.effective_steps += 1
            effective_since_compare += 1

        for applier in appliers:
            eff = applier.step(step, a, b, p_idx, q_idx)
            if eff != ref_effective:
                return finish(
                    Divergence(
                        engine=applier.name,
                        step=step,
                        pair=(a, b),
                        kind="effectiveness",
                        detail=(
                            f"pair ({state_names[p_idx]}, {state_names[q_idx]}) is "
                            f"{'effective' if ref_effective else 'null'} "
                            f"under the rule listing but "
                            f"{'effective' if eff else 'null'} in the "
                            f"{applier.name} path"
                        ),
                        reference_counts=list(ref_counts),
                        engine_counts=list(applier.counts),
                    )
                )

        compare_now = ref_effective and effective_since_compare >= stride
        if compare_now:
            effective_since_compare = 0
        if compare_now or step == len(schedule.pairs) - 1:
            for applier in appliers:
                have = list(applier.counts)
                if have != ref_counts:
                    return finish(
                        Divergence(
                            engine=applier.name,
                            step=step,
                            pair=(a, b),
                            kind="counts",
                            detail=(
                                f"count vector drifted from the oracle "
                                f"after {report.effective_steps} effective "
                                f"interactions"
                            ),
                            reference_counts=list(ref_counts),
                            engine_counts=have,
                        )
                    )
            if pack and ref_effective:
                problems = check_counts(pack, ref_counts)
                if problems:
                    report.invariant_violations.extend(problems)
                    return finish(
                        Divergence(
                            engine="reference",
                            step=step,
                            pair=(a, b),
                            kind="invariant",
                            detail="; ".join(problems),
                            reference_counts=list(ref_counts),
                            engine_counts=None,
                        )
                    )

    # Terminal cross-checks: internal bookkeeping and, when the schedule
    # was recorded rather than hand-built, agreement with its own record.
    for applier in appliers:
        problem = applier.check()
        if problem is not None:
            return finish(
                Divergence(
                    engine=applier.name,
                    step=len(schedule.pairs) - 1,
                    pair=schedule.pairs[-1] if schedule.pairs else (-1, -1),
                    kind="consistency",
                    detail=problem,
                    reference_counts=list(ref_counts),
                    engine_counts=list(applier.counts),
                )
            )
    if (
        reference_protocol is None
        and schedule.final_counts
        and ref_counts != list(schedule.final_counts)
    ):
        return finish(
            Divergence(
                engine="reference",
                step=len(schedule.pairs) - 1,
                pair=schedule.pairs[-1] if schedule.pairs else (-1, -1),
                kind="counts",
                detail="oracle replay disagrees with the schedule's own record",
                reference_counts=list(ref_counts),
                engine_counts=list(schedule.final_counts),
            )
        )
    return finish(None)
