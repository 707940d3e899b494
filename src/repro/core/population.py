"""Populations — explicit per-agent state vectors, stepped by name.

Most of the library works on count vectors (see
:mod:`repro.core.configuration`), but agent identity matters for three
things: scripted executions that replay the paper's Figure 1/2 examples,
interaction-graph-restricted schedulers, and tests that track individual
group membership.  :class:`Population` is the mutable agent-level view.

Every agent-level step outside the engines goes through
:class:`ReferenceInterpreter`, the library's one name-level stepper: it
applies :meth:`~repro.core.transitions.TransitionTable.apply` to state
*names* and never reads a compiled table, so its verdicts are
independent of every engine data path.  :class:`Population` steps it,
and so do the recorder, the conformance differ, driven sessions and
bisection (:mod:`repro.conform`, :mod:`repro.sessiond`).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .configuration import Configuration
from .errors import ConfigurationError
from .protocol import Protocol

__all__ = ["Population", "ReferenceInterpreter"]


class ReferenceInterpreter:
    """The compilation-free name-level interpreter of one population.

    ``states`` holds one state index per agent and ``counts`` the
    configuration they form.  :meth:`step` looks the two agents' state
    names up in the protocol's rule listing — no compiled tables,
    interaction classes or weights — so its verdicts are independent of
    every engine data path.
    """

    __slots__ = ("states", "counts", "_names", "_index", "_apply")

    def __init__(self, protocol: Protocol, states: Sequence[int]) -> None:
        space = protocol.space
        self._names = space.names
        self._index = space.index
        self._apply = protocol.transitions.apply
        self.states = [int(s) for s in states]
        self.counts = [0] * protocol.num_states
        for s in self.states:
            self.counts[s] += 1

    @classmethod
    def at(cls, protocol: Protocol, counts: Sequence[int]) -> "ReferenceInterpreter":
        """Agents laid out by state: ``counts[0]`` in state 0, then state 1, ..."""
        return cls(protocol, [idx for idx, c in enumerate(counts) for _ in range(c)])

    def step(self, a: int, b: int) -> tuple[int, int, bool]:
        """Let agents ``a`` and ``b`` interact.

        Returns their state indices before the interaction and whether
        it changed either of them.
        """
        states, names = self.states, self._names
        p, q = states[a], states[b]
        p_name, q_name = names[p], names[q]
        p2_name, q2_name = self._apply(p_name, q_name)
        if p2_name == p_name and q2_name == q_name:
            return p, q, False
        p2, q2 = self._index(p2_name), self._index(q2_name)
        states[a], states[b] = p2, q2
        counts = self.counts
        counts[p] -= 1
        counts[q] -= 1
        counts[p2] += 1
        counts[q2] += 1
        return p, q, True


class Population:
    """A mutable array of agent states for a given protocol.

    Parameters
    ----------
    protocol:
        The protocol the agents run.
    states:
        Initial agent states: either a sequence of state names, a
        sequence of state indices, or None to place all agents in the
        protocol's designated initial state (requires ``n``).
    n:
        Population size when ``states`` is None.
    """

    __slots__ = ("_protocol", "_interp")

    def __init__(
        self,
        protocol: Protocol,
        states: Sequence[str] | Sequence[int] | np.ndarray | None = None,
        *,
        n: int | None = None,
    ) -> None:
        self._protocol = protocol
        if states is None:
            if n is None:
                raise ConfigurationError("supply either explicit states or a population size n")
            if protocol.initial_state is None:
                raise ConfigurationError(
                    "protocol has no designated initial state; supply explicit states"
                )
            idx = [protocol.space.index(protocol.initial_state)] * n
        else:
            if n is not None and n != len(states):
                raise ConfigurationError(f"n={n} does not match len(states)={len(states)}")
            if len(states) == 0:
                raise ConfigurationError("a population must contain at least one agent")
            if isinstance(states[0], str):
                idx = [protocol.space.index(s) for s in states]  # type: ignore[arg-type]
            else:
                arr = np.asarray(states)
                if arr.ndim != 1:
                    raise ConfigurationError("states must be a flat sequence")
                if (arr < 0).any() or (arr >= protocol.num_states).any():
                    raise ConfigurationError("state index out of range")
                idx = arr.tolist()
        self._interp = ReferenceInterpreter(protocol, idx)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def protocol(self) -> Protocol:
        return self._protocol

    @property
    def n(self) -> int:
        return len(self._interp.states)

    @property
    def state_indices(self) -> np.ndarray:
        """Read-only per-agent state indices (a snapshot)."""
        return _frozen(self._interp.states, np.int32)

    @property
    def counts(self) -> np.ndarray:
        """Read-only per-state counts (a snapshot)."""
        return _frozen(self._interp.counts, np.int64)

    def state_of(self, agent: int) -> str:
        """State name of agent ``agent`` (0-based)."""
        return self._protocol.space.name(self._interp.states[agent])

    def group_of(self, agent: int) -> int:
        """Current group ``f(s(agent))`` of an agent."""
        return self._protocol.space.group_of(self._interp.states[agent])

    def state_names(self) -> list[str]:
        """All agent states as names, in agent order."""
        names = self._protocol.space.names
        return [names[i] for i in self._interp.states]

    def configuration(self) -> Configuration:
        """Snapshot the current counts as an immutable configuration."""
        return Configuration(self._protocol, self.counts)

    def group_sizes(self) -> np.ndarray:
        """Per-group totals of the current assignment."""
        return self._protocol.group_sizes(self.counts)

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------
    def interact(self, a: int, b: int) -> bool:
        """Perform one interaction between agents ``a`` and ``b``.

        Agent ``a`` is the initiator (relevant only for asymmetric
        protocols).  Returns True when either agent changed state.
        """
        if a == b:
            raise ConfigurationError("an agent cannot interact with itself")
        return self._interp.step(a, b)[2]

    def run_script(self, pairs: Sequence[tuple[int, int]]) -> int:
        """Replay a scripted sequence of interactions.

        Returns the number of interactions that changed some state.
        Used by the tests that reproduce the paper's Figure 1 and 2
        walk-throughs step by step.
        """
        return sum(self.interact(a, b) for a, b in pairs)

    def set_state(self, agent: int, state: str | int) -> None:
        """Forcibly set one agent's state (test/scenario setup helper)."""
        if isinstance(state, str):
            state = self._protocol.space.index(state)
        interp = self._interp
        interp.counts[interp.states[agent]] -= 1
        interp.counts[state] += 1
        interp.states[agent] = state

    def copy(self) -> "Population":
        """An independent copy of this population."""
        return Population(self._protocol, self._interp.states)

    def __repr__(self) -> str:
        return f"Population(n={self.n}, protocol={self._protocol.name!r})"


def _frozen(values: list[int], dtype: type) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    arr.setflags(write=False)
    return arr
