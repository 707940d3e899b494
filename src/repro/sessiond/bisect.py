"""Divergence bisection: where do two sessions first disagree?

Two driven sessions replaying the *same* recorded schedule are pure
functions of their protocol tables, so the first interaction whose
outcome differs between them is well defined (a mutated transition
rule, a protocol-variant behaviour difference).  That split is found
even when the trajectories later heal back into the same
configuration.  Outcomes are the name-level interpreter's.  Each
engine's effectiveness verdict is checked against its own rule listing
on every step (:meth:`~repro.sessiond.manager.ManagedSession.step`
raises on a mismatch); the conformance differ localizes engine faults.

Every driven checkpoint carries the session's *trail*, a digest chained
over the outcome of each effective step before it (see
:mod:`repro.sessiond.manager`).  Equal trails at ``t`` mean the two
sessions agree on every step before ``t``, and once two trails differ
they stay different, so the latest position where both sessions hold a
checkpoint with equal trails is a safe place to start.  Interaction 0
always qualifies.  Bisection restores both sessions there (two
*probes*) and steps them in lockstep until the first step whose
post-states differ, or to the end of the schedule.  The cost is two
checkpoint restores plus the distance from that shared checkpoint to
the split; denser checkpoints only make it cheaper, never change the
answer.  A checkpoint stored without a trail is skipped.

The emitted minimal reproducer uses the conformance subsystem's trace
format (``conform_divergence`` + ``conform_schedule`` records via
:class:`~repro.obs.trace.TraceWriter`), so the existing replay tooling
consumes it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..conform.differ import Divergence, write_reproducer
from ..conform.schedule import InteractionSchedule
from ..core.errors import SimulationError
from ..obs.telemetry import get_telemetry
from .manager import SessionManager

__all__ = ["BisectReport", "bisect_divergence"]


@dataclass(slots=True)
class BisectReport:
    """Outcome of one bisection between two sessions."""

    session_a: str
    session_b: str
    schedule_length: int
    #: 0-based index of the first divergent interaction, or None when
    #: the two sessions agree over the whole schedule.
    first_divergence: int | None
    #: The (initiator, responder) pair at the divergent step.
    pair: tuple[int, int] | None
    #: Configurations immediately after the divergent interaction.
    counts_a: list[int] | None
    counts_b: list[int] | None
    #: Checkpoint restores the search spent (two, or none when the
    #: sessions' trails already agree at the end of the schedule).
    probes: int
    reproducer_path: str | None = None

    @property
    def diverged(self) -> bool:
        return self.first_divergence is not None

    def to_record(self) -> dict:
        return {
            "session_a": self.session_a,
            "session_b": self.session_b,
            "schedule_length": self.schedule_length,
            "first_divergence": self.first_divergence,
            "pair": None if self.pair is None else [int(self.pair[0]), int(self.pair[1])],
            "counts_a": self.counts_a,
            "counts_b": self.counts_b,
            "probes": self.probes,
            "reproducer_path": self.reproducer_path,
        }

    def summary(self) -> str:
        head = (
            f"{self.session_a} vs {self.session_b}: "
            f"{self.schedule_length} scheduled interactions"
        )
        if not self.diverged:
            return head + f" — no divergence ({self.probes} probes)"
        lines = [
            head
            + f" — first divergence at interaction {self.first_divergence} "
            f"pair={self.pair} ({self.probes} probes)",
            f"  counts_a: {self.counts_a}",
            f"  counts_b: {self.counts_b}",
        ]
        if self.reproducer_path:
            lines.append(f"  reproducer: {self.reproducer_path}")
        return "\n".join(lines)


def bisect_divergence(
    manager: SessionManager,
    session_a: str,
    session_b: str,
    *,
    reproducer_dir: str | Path | None = None,
) -> BisectReport:
    """The first interaction whose outcome differs between two sessions.

    Both sessions must be driven replays of the same schedule (same
    pair list, same population); their protocols may differ — that is
    the point.  Neither session needs to have been advanced: the replay
    starts from the last checkpoint both share with equal trails
    (interaction 0 always does).

    When a divergence is found and ``reproducer_dir`` is given, the
    minimal reproducer — the schedule prefix up to and including the
    divergent pair — is dumped in the conformance trace format.
    """
    row_a = manager.store.require_session(session_a)
    row_b = manager.store.require_session(session_b)
    for row in (row_a, row_b):
        if row.mode != "driven":
            raise SimulationError(
                f"bisection needs driven sessions; {row.id!r} is mode {row.mode!r}"
            )
    sched_a = row_a.config["schedule"]
    sched_b = row_b.config["schedule"]
    if sched_a["pairs"] != sched_b["pairs"] or sched_a["n"] != sched_b["n"]:
        raise SimulationError(
            f"sessions {session_a!r} and {session_b!r} replay different "
            "schedules; bisection compares trajectories under one schedule"
        )
    if sched_a["initial_counts"] != sched_b["initial_counts"]:
        raise SimulationError(
            f"sessions {session_a!r} and {session_b!r} start from different "
            "configurations"
        )

    total = len(sched_a["pairs"])
    report = BisectReport(
        session_a=session_a,
        session_b=session_b,
        schedule_length=total,
        first_divergence=None,
        pair=None,
        counts_a=None,
        counts_b=None,
        probes=0,
    )
    trails_b = manager.store.checkpoint_trails(session_b)
    start = max(
        (
            t
            for t, trail in manager.store.checkpoint_trails(session_a).items()
            if trails_b.get(t) == trail
        ),
        default=0,
    )
    if start >= total:
        return report

    run_a = manager.probe(session_a, start)
    run_b = manager.probe(session_b, start)
    report.probes = 2
    telemetry = get_telemetry()
    if telemetry.enabled:
        telemetry.counter("sessiond.bisect.probes").inc(2)
    assert run_a.schedule is not None and run_a.interpreter is not None
    assert run_b.interpreter is not None
    pairs = run_a.schedule.pairs
    states_a, states_b = run_a.interpreter.states, run_b.interpreter.states
    while run_a.cursor < total:
        step = run_a.cursor
        a, b = pairs[step]
        run_a.step()
        run_b.step()
        if states_a[a] != states_b[a] or states_a[b] != states_b[b]:
            report.first_divergence = step
            report.pair = (a, b)
            report.counts_a = list(run_a.session.counts)
            report.counts_b = list(run_b.session.counts)
            if reproducer_dir is not None:
                report.reproducer_path = _dump_reproducer(
                    reproducer_dir, run_a.schedule, report
                )
            break
    return report


def _dump_reproducer(
    directory: str | Path, schedule: InteractionSchedule, report: BisectReport
) -> str:
    """Write the minimal-reproducer trace (conformance format)."""
    assert report.first_divergence is not None
    divergence = Divergence(
        engine=report.session_b,
        step=report.first_divergence,
        pair=report.pair or (-1, -1),
        kind="counts",
        detail=(
            f"sessions {report.session_a!r} and {report.session_b!r} first "
            f"disagree after interaction {report.first_divergence}"
        ),
        reference_counts=list(report.counts_a or []),
        engine_counts=list(report.counts_b or []),
    )
    return write_reproducer(
        Path(directory)
        / (
            f"bisect-{report.session_a}-vs-{report.session_b}"
            f"-step{report.first_divergence}.jsonl"
        ),
        schedule,
        divergence,
        {
            "kind": "sessiond-bisect-reproducer",
            "session_a": report.session_a,
            "session_b": report.session_b,
            "probes": report.probes,
        },
    )
