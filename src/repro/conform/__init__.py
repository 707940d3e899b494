"""Conformance: cross-engine differential testing and invariant enforcement.

Five engine implementations (agent, batch, count, hybrid, ensemble)
share one transition semantics; every performance PR re-derives it.
This subsystem makes the agreement *checkable* instead of hoped-for:

* :mod:`repro.conform.invariants` — a pluggable pack of runtime
  invariants (the paper's Lemma 1 conserved quantity, population
  conservation, the ``#g_1 >= ... >= #g_k`` staircase, ``|M| + |D|``
  cardinality bounds, stable-signature uniqueness per Lemmas 4-6)
  attachable to any engine through the ``on_effective`` callback;
* :mod:`repro.conform.schedule` — the compilation-free
  :class:`ReferenceInterpreter` every driven replay steps, and the
  interaction schedules recorded from it, replayable and
  JSON-serializable (the minimal-reproducer format);
* :mod:`repro.conform.differ` — the drivable engine paths
  (:data:`ENGINE_PATHS`, started by :func:`start_driven`) and a
  lockstep differential executor that replays one schedule through
  each engine's own transition-application data path and diffs the
  count vectors step by step, dumping a reproducer via
  :class:`~repro.obs.trace.TraceWriter` on first divergence;
* :mod:`repro.conform.fuzzer` — a seed-corpus fuzzer sweeping
  (protocol, n, engine, scheduler) across the registry hunting for
  invariant violations and cross-engine splits;
* :mod:`repro.conform.mutation` — transition-table mutation and the
  self-test proving the harness actually catches planted bugs;
* :mod:`repro.conform.runtime` — the ``--conform`` debug-flag hook the
  experiment/campaign CLIs install so every ``run_trials`` result is
  conformance-checked in production sweeps.

CLI: ``repro-experiments conform {diff,fuzz,check}``; see
``docs/conformance.md``.
"""

from .differ import ENGINE_PATHS, DiffReport, Divergence, run_differential
from .fuzzer import FuzzCase, FuzzFinding, default_corpus, run_fuzz
from .invariants import (
    ConformanceMonitor,
    Invariant,
    invariant_pack,
    check_counts,
)
from .mutation import mutate_protocol, self_test
from .runtime import active_conformance, check_result, use_conformance
from .schedule import InteractionSchedule, ReferenceInterpreter, record_schedule

__all__ = [
    "ENGINE_PATHS",
    "Invariant",
    "invariant_pack",
    "check_counts",
    "ConformanceMonitor",
    "InteractionSchedule",
    "ReferenceInterpreter",
    "record_schedule",
    "DiffReport",
    "Divergence",
    "run_differential",
    "FuzzCase",
    "FuzzFinding",
    "default_corpus",
    "run_fuzz",
    "mutate_protocol",
    "self_test",
    "use_conformance",
    "active_conformance",
    "check_result",
]
