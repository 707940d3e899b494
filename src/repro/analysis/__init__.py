"""Analysis & verification: stability signatures, explicit-state model
checking, convergence statistics, grouping decomposition (Figure 4), and
the paper's closed-form facts.

Lemma 1 is checked live by :class:`repro.conform.ConformanceMonitor`
over :func:`repro.conform.invariant_pack`; its :class:`InvariantViolation`
is re-exported here."""

from ..core.errors import InvariantViolation

from .convergence import (
    FitResult,
    confidence_interval,
    fit_exponential,
    fit_power_law,
    growth_classification,
)
from .exact import ExactExpectation, expected_interactions_exact
from .grouping import GroupingDecomposition, decompose_groupings
from .reachability import (
    ReachabilityReport,
    explore,
    verify_kpartition,
    verify_stabilization,
)
from .scaling import (
    DEFAULT_LOG_EXPONENT_GRID,
    ScalingFit,
    bootstrap_scaling_fit,
    budget_crossing,
    fit_scaling_law,
)
from .search import (
    SearchResult,
    enumerate_group_maps,
    enumerate_rule_tables,
    enumerate_symmetric_rule_tables,
    search_lower_bound,
    solves_uniform_partition,
)
from .state_usage import StateUsage, reachable_states, state_usage_table
from .stability import (
    final_sizes_match_theory,
    groups_frozen_under_transitions,
    is_group_stable,
    is_uniform_partition,
    kpartition_stable_signature,
)
from .theory import (
    StateComplexityRow,
    approx_state_count,
    lower_bound_state_count,
    proposed_state_count,
    repeated_bipartition_state_count,
    state_complexity_row,
)

__all__ = [
    "InvariantViolation",
    "kpartition_stable_signature",
    "is_uniform_partition",
    "is_group_stable",
    "groups_frozen_under_transitions",
    "final_sizes_match_theory",
    "ReachabilityReport",
    "explore",
    "verify_stabilization",
    "verify_kpartition",
    "FitResult",
    "fit_power_law",
    "fit_exponential",
    "confidence_interval",
    "growth_classification",
    "ScalingFit",
    "fit_scaling_law",
    "bootstrap_scaling_fit",
    "DEFAULT_LOG_EXPONENT_GRID",
    "budget_crossing",
    "GroupingDecomposition",
    "decompose_groupings",
    "ExactExpectation",
    "expected_interactions_exact",
    "SearchResult",
    "enumerate_symmetric_rule_tables",
    "enumerate_rule_tables",
    "enumerate_group_maps",
    "search_lower_bound",
    "solves_uniform_partition",
    "StateUsage",
    "reachable_states",
    "state_usage_table",
    "StateComplexityRow",
    "proposed_state_count",
    "approx_state_count",
    "lower_bound_state_count",
    "repeated_bipartition_state_count",
    "state_complexity_row",
]
