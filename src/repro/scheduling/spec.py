"""Canonical, picklable scheduler specifications.

Campaign specs, ``run_trials`` and the CLIs name schedulers by string;
:class:`SchedulerSpec` is the parsed, validated form of those names and
the single place the grammar lives::

    uniform                   two agents uniformly at random (the paper)
    roundrobin                deterministic sweep over all ordered pairs
                              (weakly fair, NOT globally fair)
    graph:complete            random edge of K_n (equals uniform)
    graph:cycle               random edge of the n-cycle
    graph:regular:<d>         random edge of a random d-regular graph
    graph:regular:<d>@<gs>    ... drawn with topology seed <gs>

The ``@<gs>`` suffix is the *graph seed*: it selects which d-regular
topology is drawn and is deliberately separate from the schedule seed
(see :meth:`~repro.scheduling.graph.GraphScheduler.random_regular`),
so the same name always denotes the same edge set.  Specs are frozen
dataclasses, so they pickle cleanly into campaign workers.

:class:`~repro.engine.batch.BatchEngine` takes a spec directly and picks
its pair source from :attr:`SchedulerSpec.kind`: the uniform draw for
``uniform``, the random-edge draw over :meth:`SchedulerSpec.edge_array`
(built once per run) for ``graph``, and :meth:`SchedulerSpec.build`'s
scheduler object for ``roundrobin``.  :meth:`SchedulerSpec.build` also
has the ``(n, rng) -> Scheduler`` signature of a ``BatchEngine``
scheduler factory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.errors import SchedulerError
from .adversarial import RoundRobinScheduler
from .base import Scheduler
from .graph import GraphScheduler
from .uniform import UniformScheduler

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["SchedulerSpec", "parse_scheduler", "scheduler_names"]

#: Name templates accepted by :func:`parse_scheduler` (documentation
#: order; ``<d>``/``<gs>`` are integers).
_NAME_TEMPLATES = (
    "uniform",
    "roundrobin",
    "graph:complete",
    "graph:cycle",
    "graph:regular:<d>",
    "graph:regular:<d>@<graph_seed>",
)


def scheduler_names() -> tuple[str, ...]:
    """The accepted scheduler-name templates, for help text and errors."""
    return _NAME_TEMPLATES


@dataclass(frozen=True, slots=True)
class SchedulerSpec:
    """A parsed scheduler name.

    ``kind`` is ``"uniform"``, ``"roundrobin"`` or ``"graph"``; graph
    specs additionally carry the ``topology`` (``"complete"``,
    ``"cycle"`` or ``"regular"``), and regular ones the ``degree`` and
    ``graph_seed``.
    """

    kind: str
    topology: str | None = None
    degree: int | None = None
    graph_seed: int = 0

    # ------------------------------------------------------------------
    # Canonical name
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """The canonical string form (parses back to an equal spec)."""
        if self.kind != "graph":
            return self.kind
        if self.topology != "regular":
            return f"graph:{self.topology}"
        base = f"graph:regular:{self.degree}"
        return base if self.graph_seed == 0 else f"{base}@{self.graph_seed}"

    @property
    def is_uniform(self) -> bool:
        """True when the spec denotes the paper's uniform scheduler.

        ``graph:complete`` is *not* reported uniform here even though
        the edge distribution coincides: it draws from a different RNG
        stream, so results are not bit-comparable with ``uniform``.
        """
        return self.kind == "uniform"

    # ------------------------------------------------------------------
    # Parsing
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, name: "str | SchedulerSpec") -> "SchedulerSpec":
        """Parse a scheduler name; specs pass through unchanged."""
        if isinstance(name, SchedulerSpec):
            return name
        if not isinstance(name, str):
            raise SchedulerError(
                f"scheduler must be a name or SchedulerSpec, got {type(name).__name__}"
            )
        text = name.strip().lower()
        if text == "uniform":
            return cls("uniform")
        if text in ("roundrobin", "round-robin"):
            return cls("roundrobin")
        if text.startswith("graph:"):
            rest = text[len("graph:"):]
            if rest in ("complete", "cycle"):
                return cls("graph", topology=rest)
            if rest.startswith("regular:"):
                arg = rest[len("regular:"):]
                degree_text, _, seed_text = arg.partition("@")
                try:
                    degree = int(degree_text)
                    graph_seed = int(seed_text) if seed_text else 0
                except ValueError:
                    raise SchedulerError(
                        f"bad graph:regular spec {name!r}; expected "
                        "graph:regular:<degree>[@<graph_seed>] with integers"
                    ) from None
                if degree < 2:
                    raise SchedulerError(
                        f"regular-graph degree must be >= 2, got {degree} "
                        "(degree-1 graphs are disconnected matchings)"
                    )
                return cls("graph", topology="regular", degree=degree,
                           graph_seed=graph_seed)
        raise SchedulerError(
            f"unknown scheduler {name!r}; accepted names: "
            + ", ".join(_NAME_TEMPLATES)
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build_graph(self, n: int) -> nx.Graph:
        """The interaction graph this spec denotes for ``n`` agents.

        Deterministic in ``(spec, n)`` — topology construction never
        touches the schedule RNG, so the same spec always yields the
        same edge set regardless of run seed.
        """
        if self.kind != "graph":
            raise SchedulerError(
                f"scheduler {self.name!r} has no interaction graph"
            )
        import networkx as nx

        if self.topology == "complete":
            return nx.complete_graph(n)
        if self.topology == "cycle":
            return nx.cycle_graph(n)
        assert self.topology == "regular"
        if self.degree >= n or (n * self.degree) % 2:
            raise SchedulerError(
                f"no {self.degree}-regular graph on {n} nodes "
                "(need degree < n and n*degree even)"
            )
        return nx.random_regular_graph(self.degree, n, seed=self.graph_seed)

    def edge_array(self, n: int) -> np.ndarray:
        """The graph's edges as the ``(E, 2)`` int64 array engines sample.

        Uses the exact conversion :class:`GraphScheduler` applies to
        its graph, so edge *order* — and therefore the sampled pair
        stream for a given RNG — matches a ``GraphScheduler`` on
        :meth:`build_graph` bit for bit.
        """
        return np.asarray(list(self.build_graph(n).edges), dtype=np.int64)

    def build(self, n: int, rng: np.random.Generator | None = None) -> Scheduler:
        """Instantiate the scheduler (the ``(n, rng)`` factory form)."""
        if self.kind == "uniform":
            return UniformScheduler(n, rng)
        if self.kind == "roundrobin":
            return RoundRobinScheduler(n, rng)
        return GraphScheduler(self.build_graph(n), rng)


def parse_scheduler(name: str | SchedulerSpec) -> SchedulerSpec:
    """Module-level alias for :meth:`SchedulerSpec.parse`."""
    return SchedulerSpec.parse(name)
