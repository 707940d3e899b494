"""Core population-protocol model: states, transitions, protocols,
configurations, populations and their name-level stepper, and the
protocol compiler."""

from .compiler import CompiledProtocol, InteractionClass, compile_protocol
from .configuration import Configuration
from .errors import (
    AsymmetricTransitionError,
    CampaignError,
    ConfigurationError,
    ConvergenceError,
    ExperimentError,
    InvariantViolation,
    NonDeterministicProtocolError,
    ProtocolError,
    ReproError,
    SchedulerError,
    SimulationError,
    UnknownEngineError,
    UnknownProtocolError,
    UnknownStateError,
)
from .population import Population, ReferenceInterpreter
from .protocol import Protocol, StabilitySignature
from .rng import SeedLike, ensure_generator, spawn_generators, spawn_seed_sequences
from .state import StateSpace
from .transitions import Transition, TransitionTable

__all__ = [
    "CompiledProtocol",
    "InteractionClass",
    "compile_protocol",
    "Configuration",
    "Population",
    "ReferenceInterpreter",
    "Protocol",
    "StabilitySignature",
    "StateSpace",
    "Transition",
    "TransitionTable",
    "SeedLike",
    "ensure_generator",
    "spawn_generators",
    "spawn_seed_sequences",
    "ReproError",
    "ProtocolError",
    "NonDeterministicProtocolError",
    "AsymmetricTransitionError",
    "UnknownStateError",
    "ConfigurationError",
    "SimulationError",
    "ConvergenceError",
    "SchedulerError",
    "ExperimentError",
    "InvariantViolation",
    "UnknownEngineError",
    "UnknownProtocolError",
    "CampaignError",
]
