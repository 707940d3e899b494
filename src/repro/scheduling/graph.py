"""Interaction-graph-restricted scheduling.

The population protocol model is usually stated over a complete
interaction graph (any two agents may meet); restricted communication
graphs are a standard variation [4].  :class:`GraphScheduler` picks a
uniformly random *edge* of an arbitrary undirected graph each step,
with a random orientation.

On the complete graph this coincides with the uniform scheduler.  On a
connected non-complete graph the random-edge schedule is still globally
fair with probability 1 *for the reachable pairs*, but the paper's
protocol is only specified for the complete graph — the experiment
``examples/sensor_duty_cycling.py`` and the graph-scheduler tests use
this class to probe robustness (the protocol still stabilizes on dense
connected graphs, while sparse graphs slow it down).

:func:`edge_pairs` is the one implementation of the random-edge draw:
the scheduler and the agent-level engine's sessions on a ``graph:*``
spec both call it, so for one seed they consume the same random
stream.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..core.errors import SchedulerError
from ..core.rng import SeedLike
from .base import PairBlock, Scheduler

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["GraphScheduler", "edge_pairs"]


def edge_pairs(rng: np.random.Generator, edges: np.ndarray, size: int) -> PairBlock:
    """Draw ``size`` uniformly random rows of the ``(E, 2)`` ``edges``,
    each randomly oriented.

    All edge indices first, then all orientation coins, from ``rng``:
    the order every engine's random stream depends on.
    """
    pairs = edges[rng.integers(0, len(edges), size=size)]
    a = pairs[:, 0].copy()
    b = pairs[:, 1].copy()
    # Random orientation so asymmetric rules see both roles.
    swap = rng.random(size) < 0.5
    a[swap], b[swap] = b[swap], a[swap].copy()
    return a, b


class GraphScheduler(Scheduler):
    """Uniform random edges of an undirected interaction graph.

    Parameters
    ----------
    graph:
        An undirected networkx graph whose nodes are the integers
        ``0 .. n-1``.  Must have at least one edge and no self-loops.
    seed:
        RNG seed.
    """

    def __init__(self, graph: nx.Graph, seed: SeedLike = None) -> None:
        n = graph.number_of_nodes()
        nodes = set(graph.nodes)
        if nodes != set(range(n)):
            raise SchedulerError("graph nodes must be exactly the integers 0..n-1")
        if graph.number_of_edges() == 0:
            raise SchedulerError("interaction graph has no edges")
        if any(u == v for u, v in graph.edges):
            raise SchedulerError("interaction graph must not contain self-loops")
        super().__init__(n, seed)
        self._graph = graph
        self._edges = np.asarray(list(graph.edges), dtype=np.int64)

    @classmethod
    def complete(cls, n: int, seed: SeedLike = None) -> "GraphScheduler":
        """Scheduler over the complete graph K_n (equals uniform)."""
        import networkx as nx

        return cls(nx.complete_graph(n), seed)

    @classmethod
    def cycle(cls, n: int, seed: SeedLike = None) -> "GraphScheduler":
        """Scheduler over the n-cycle — a sparse worst-ish case."""
        import networkx as nx

        return cls(nx.cycle_graph(n), seed)

    @classmethod
    def random_regular(
        cls,
        degree: int,
        n: int,
        seed: SeedLike = None,
        *,
        graph_seed: int = 0,
    ) -> "GraphScheduler":
        """Scheduler over a random d-regular interaction graph.

        Structure and schedule are seeded *separately*: ``graph_seed``
        determines which d-regular graph is drawn (same value, same
        edge set — topologies are reproducible independently of the
        run), while ``seed`` drives only the edge-sampling RNG.
        Passing a different ``seed`` never changes the topology, and a
        different ``graph_seed`` never perturbs the schedule stream.
        """
        import networkx as nx

        graph = nx.random_regular_graph(degree, n, seed=graph_seed)
        return cls(graph, seed)

    @property
    def graph(self) -> nx.Graph:
        return self._graph

    @property
    def edges(self) -> np.ndarray:
        """The ``(num_edges, 2)`` int64 edge array (read-only structure)."""
        return self._edges

    @property
    def is_connected(self) -> bool:
        import networkx as nx

        return nx.is_connected(self._graph)

    def next_block(self, size: int) -> PairBlock:
        return edge_pairs(self._rng, self._edges, size)

    @property
    def is_uniform(self) -> bool:
        # Uniform over all pairs only when the graph is complete.
        n = self._n
        return len(self._edges) == n * (n - 1) // 2
