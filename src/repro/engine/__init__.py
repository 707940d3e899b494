"""Simulation engines: reference agent-based, the one pair-loop session
(``batch``; ``batch-jit`` is the same engine under a second name, and
``graph`` swaps in an edge sampler for graph-restricted schedulers),
the count-based jump-chain engine with null-interaction skipping
(``count-jit`` is the same engine under a second name), the ensemble
engine that vectorizes the jump chain across replicates, and the
process-parallel sharded ensemble tier (``ensemble-parallel``).  The
pair loop and the jump chain run in compiled kernels when a native
backend is available (``REPRO_KERNEL=auto|cc|python``).

Each engine is a stepper factory: ``Engine.start`` returns a resumable
:class:`EngineSession` (advance/snapshot/restore/result) and
``Engine.run`` drives a fresh session to completion in one call."""

from .agent_based import AgentBasedEngine
from .base import Engine, SimulationResult, StepCallback
from .batch import BatchEngine
from .count_based import CountBasedEngine
from .ensemble import EnsembleEngine
from .graph_batch import GraphBatchEngine, GraphBatchSession
from .hybrid import HybridEngine
from .jit import JitBatchEngine, JitCountEngine
from .kernels import KernelBuildError, KernelSet, get_kernels, reset_kernels
from .parallel import ParallelEnsembleEngine, ShardedEnsembleSession
from .metrics import TimeSeriesRecorder, aggregate_milestones
from .registry import (
    available_engines,
    build_engine,
    engine_for_scheduler,
    register_engine,
    resolve_engine,
)
from .session import EngineSession, SessionState, SessionStatus
from .runner import (
    InMemoryTrialCache,
    TrialCache,
    TrialSet,
    run_trials,
    trial_fingerprint,
    use_trial_cache,
)
from .sampling import FenwickWeights

__all__ = [
    "Engine",
    "SimulationResult",
    "StepCallback",
    "EngineSession",
    "SessionState",
    "SessionStatus",
    "AgentBasedEngine",
    "BatchEngine",
    "CountBasedEngine",
    "EnsembleEngine",
    "GraphBatchEngine",
    "GraphBatchSession",
    "HybridEngine",
    "JitCountEngine",
    "JitBatchEngine",
    "ParallelEnsembleEngine",
    "ShardedEnsembleSession",
    "KernelSet",
    "KernelBuildError",
    "get_kernels",
    "reset_kernels",
    "FenwickWeights",
    "available_engines",
    "build_engine",
    "engine_for_scheduler",
    "register_engine",
    "resolve_engine",
    "TimeSeriesRecorder",
    "aggregate_milestones",
    "TrialSet",
    "TrialCache",
    "InMemoryTrialCache",
    "run_trials",
    "trial_fingerprint",
    "use_trial_cache",
]
