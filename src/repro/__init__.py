"""repro — population protocols for uniform k-partition under global fairness.

A complete, executable reproduction of

    Hiroto Yasumi, Naoki Kitamura, Fukuhito Ooshita, Taisuke Izumi,
    Michiko Inoue.  "A Population Protocol for Uniform k-partition
    under Global Fairness."  IPDPS Workshops (IPPS) 2018; journal
    version IJNC 9(1):97-110, 2019.

The package contains:

* a general population-protocol core (states, transition tables,
  configurations, compiled simulation tables) — :mod:`repro.core`;
* the paper's 3k-2-state symmetric uniform k-partition protocol plus
  all its baselines and the R-generalized extension —
  :mod:`repro.protocols`;
* schedulers (uniform random = the paper's simulation model, plus
  graph-restricted and biased variants) — :mod:`repro.scheduling`;
* three cross-validated simulation engines, including a count-based
  jump-chain engine with closed-form null-interaction skipping —
  :mod:`repro.engine`;
* invariant monitoring, stability theory, and explicit-state model
  checking of Theorem 1 — :mod:`repro.analysis`;
* an observability layer: run metrics (counters/gauges/histograms),
  JSONL execution traces with provenance, and rendering tools —
  :mod:`repro.obs` (CLI: ``repro-experiments obs``);
* the experiment harness regenerating Figures 3-6 and the state
  complexity table — :mod:`repro.experiments` (CLI:
  ``repro-experiments``).

Quickstart::

    >>> from repro import uniform_k_partition, run_trials
    >>> protocol = uniform_k_partition(3)
    >>> trials = run_trials(protocol, n=30, trials=10, seed=0)
    >>> trials.all_converged
    True
    >>> trials.results[0].group_sizes.tolist()
    [10, 10, 10]
"""

from .core import (
    Configuration,
    Population,
    Protocol,
    StateSpace,
    Transition,
    TransitionTable,
)
from .engine import (
    BatchEngine,
    CountBasedEngine,
    EnsembleEngine,
    HybridEngine,
    SimulationResult,
    TrialSet,
    available_engines,
    build_engine,
    run_trials,
)
from .obs import (
    Telemetry,
    TraceWriter,
    get_telemetry,
    read_trace,
    set_telemetry,
    use_telemetry,
    use_trace_writer,
)
from .protocols import (
    approximate_k_partition,
    approximate_majority,
    available_protocols,
    build_protocol,
    graph_bipartition,
    leader_election,
    parallel_compose,
    r_generalized_partition,
    repeated_bipartition,
    uniform_bipartition,
    uniform_k_partition,
    weak_k_partition,
)
from .scheduling import GraphScheduler, SchedulerSpec, UniformScheduler

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core model
    "Protocol",
    "StateSpace",
    "Transition",
    "TransitionTable",
    "Configuration",
    "Population",
    # protocols
    "uniform_k_partition",
    "uniform_bipartition",
    "repeated_bipartition",
    "approximate_k_partition",
    "r_generalized_partition",
    "weak_k_partition",
    "graph_bipartition",
    "leader_election",
    "approximate_majority",
    "parallel_compose",
    "build_protocol",
    "available_protocols",
    # engines
    "BatchEngine",
    "CountBasedEngine",
    "EnsembleEngine",
    "HybridEngine",
    "SimulationResult",
    "TrialSet",
    "available_engines",
    "build_engine",
    "run_trials",
    # scheduling
    "UniformScheduler",
    "GraphScheduler",
    "SchedulerSpec",
    # observability
    "Telemetry",
    "get_telemetry",
    "set_telemetry",
    "use_telemetry",
    "TraceWriter",
    "use_trace_writer",
    "read_trace",
]
