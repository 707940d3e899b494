"""Interaction schedulers: the paper's uniform random scheduler plus
graph-restricted, biased, and diagnostic variants."""

from .adversarial import RoundRobinScheduler, StickyScheduler, WeightedScheduler
from .base import PairBlock, Scheduler
from .fairness import PairCoverage, chi_square_uniformity, measure_pair_coverage
from .graph import GraphScheduler, edge_pairs
from .spec import SchedulerSpec, parse_scheduler, scheduler_names
from .uniform import UniformScheduler, uniform_pairs

__all__ = [
    "Scheduler",
    "PairBlock",
    "SchedulerSpec",
    "parse_scheduler",
    "scheduler_names",
    "UniformScheduler",
    "uniform_pairs",
    "GraphScheduler",
    "edge_pairs",
    "WeightedScheduler",
    "StickyScheduler",
    "RoundRobinScheduler",
    "PairCoverage",
    "measure_pair_coverage",
    "chi_square_uniformity",
]
