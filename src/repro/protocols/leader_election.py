"""Minimal leader election — a classic building-block protocol.

Included because the paper positions uniform k-partition among the
standard population-protocol building blocks (leader election,
counting, majority); the examples use it to show the framework is not
specific to partitioning.

Two states: ``L`` (leader candidate) and ``F`` (follower).  All agents
start as candidates; when two candidates meet, one survives::

    (L, L) -> (L, F)

The rule is asymmetric — leader election from identical states is
impossible for symmetric protocols, which is exactly why the paper's
symmetric protocol needs the ``initial/initial'`` toggle instead of a
leader.  The number of leaders is non-increasing and reaches one under
any fairness assumption; the stable configurations are the silent ones.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..core.protocol import Protocol, StabilitySignature
from ..core.state import StateSpace
from ..core.transitions import TransitionTable

__all__ = ["LeaderElectionProtocol", "leader_election", "LEADER", "FOLLOWER"]

LEADER = "L"
FOLLOWER = "F"


class LeaderElectionProtocol(Protocol):
    """Two-state leader election with designated initial state ``L``."""

    def __init__(self) -> None:
        space = StateSpace([LEADER, FOLLOWER])
        table = TransitionTable(space)
        table.add(LEADER, LEADER, LEADER, FOLLOWER)
        super().__init__(
            name="leader-election",
            space=space,
            transitions=table,
            initial_state=LEADER,
            stability_signature_factory=self._make_stability_signature,
            metadata={"states": 2},
        )
        self._leader_idx = space.index(LEADER)

    @property
    def leader_index(self) -> int:
        return self._leader_idx

    def _make_stability_signature(self, n: int) -> StabilitySignature:
        """Stable iff exactly one leader is left."""
        return StabilitySignature((((self._leader_idx,), 1),))

    def num_leaders(self, counts: Sequence[int]) -> int:
        return int(counts[self._leader_idx])


def leader_election() -> LeaderElectionProtocol:
    """Build the 2-state leader election protocol."""
    return LeaderElectionProtocol()
