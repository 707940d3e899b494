"""Divergence bisection: where do two sessions first disagree?

Two driven sessions replaying the *same* recorded schedule are pure
functions of their protocol tables — so if they end in different
configurations, some single interaction is the first place the
trajectories split (a mutated transition rule, a buggy engine data
path, a protocol-variant behaviour difference).  Linear replay finds it
in O(T) engine steps; this module finds it in O(log T) *probes*, each
probe restoring the nearest stored checkpoint and driving only the
window up to the probe point (O(checkpoint interval) work against a
warm store).

The binary search maintains the invariant "configurations equal after
``lo`` interactions, different after ``hi``"; when the window closes,
``lo`` is the 0-based index of the first divergent interaction — the
two sessions agree on everything before pair ``lo`` and disagree right
after it.  The caveat is the invariant's premise: bisection assumes a
divergence, once present, persists to the probe points it inspects.  A
divergence that heals itself exactly (possible in principle for
count-identical excursions) would be invisible at the endpoints and
not found; the conformance differ's linear lockstep replay remains the
exhaustive tool.

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
    #: Checkpoint-restore probes the search spent.
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
    """Binary-search the first interaction where two sessions diverge.

    Both sessions must be driven replays of the same schedule (same
    pair list, same population); their protocols may differ — that is
    the point.  Neither session needs to have been advanced: probes
    restore whatever checkpoints exist (interaction 0 always does) and
    drive forward from there, so denser checkpoints only make the
    search cheaper, never change its answer.

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

    telemetry = get_telemetry()
    probes = 0

    def counts(sid: str, t: int) -> list[int]:
        nonlocal probes
        probes += 1
        if telemetry.enabled:
            telemetry.counter("sessiond.bisect.probes").inc()
        return manager.counts_at(sid, t)

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
    if total == 0 or counts(session_a, total) == counts(session_b, total):
        report.probes = probes
        return report

    # Invariant: equal after lo interactions, different after hi.
    lo, hi = 0, total
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if counts(session_a, mid) == counts(session_b, mid):
            lo = mid
        else:
            hi = mid
    step = lo  # counts_at(lo) agree, counts_at(lo + 1) differ
    counts_a = counts(session_a, step + 1)
    counts_b = counts(session_b, step + 1)
    schedule = InteractionSchedule.from_record(sched_a)
    report.first_divergence = step
    report.pair = schedule.pairs[step]
    report.counts_a = counts_a
    report.counts_b = counts_b
    report.probes = probes
    if reproducer_dir is not None:
        report.reproducer_path = _dump_reproducer(
            reproducer_dir, schedule, report
        )
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
