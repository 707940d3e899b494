"""Decompose the paper's figure sweeps into campaign job specs.

Each figure experiment declares its grid once, as a ``*_points``
function returning :class:`~repro.experiments.common.GridPoint` values
(k, n, trials, point seed, tracked state).  The experiment runs exactly
those points and :func:`experiment_specs` maps the same points to job
specs, so a campaign that has run a grid leaves the store's trial cache
warm and a subsequent ``repro-experiments fig3`` recomputes nothing.
"""

from __future__ import annotations

from ..core.errors import CampaignError
from ..experiments import fig3_vary_n, fig4_grouping, fig5_scaling_n, fig6_scaling_k
from ..experiments import scaling_law
from ..experiments.common import DEFAULT_SEED
from .spec import JobSpec

__all__ = ["GRID_EXPERIMENTS", "experiment_specs"]

#: grid name -> (points function, its ``--quick`` keywords).
_GRIDS = {
    "fig3": (fig3_vary_n.fig3_points, fig3_vary_n.QUICK_PARAMS),
    "fig4": (fig4_grouping.fig4_points, fig4_grouping.QUICK_PARAMS),
    "fig5": (fig5_scaling_n.fig5_points, fig5_scaling_n.QUICK_PARAMS),
    "fig6": (fig6_scaling_k.fig6_points, fig6_scaling_k.QUICK_PARAMS),
    # ``bootstrap`` sizes the scaling fit, not the grid.
    "scaling": (
        scaling_law.scaling_points,
        {k: v for k, v in scaling_law.QUICK_PARAMS.items() if k != "bootstrap"},
    ),
}

#: Experiments decomposable into independent per-point jobs.
GRID_EXPERIMENTS = tuple(_GRIDS)


def experiment_specs(
    name: str,
    *,
    quick: bool = False,
    trials: int | None = None,
    seed: int = DEFAULT_SEED,
    engine: str = "count",
) -> list[JobSpec]:
    """Job specs for one figure grid (or ``"all"`` for every grid).

    ``quick=True`` uses the experiment's own ``QUICK_PARAMS`` grid;
    ``trials`` overrides the per-point trial count either way.
    """
    if name == "all":
        out: list[JobSpec] = []
        for grid in GRID_EXPERIMENTS:
            out.extend(
                experiment_specs(
                    grid, quick=quick, trials=trials, seed=seed, engine=engine
                )
            )
        return out
    try:
        points, quick_params = _GRIDS[name]
    except KeyError:
        raise CampaignError(
            f"no campaign grid for {name!r}; decomposable experiments: "
            f"{', '.join(GRID_EXPERIMENTS)} (or 'all')"
        ) from None
    kwargs: dict = dict(quick_params) if quick else {}
    if trials is not None:
        kwargs["trials"] = trials
    return [
        JobSpec(
            protocol="uniform-k-partition",
            params={"k": point.k},
            n=point.n,
            trials=point.trials,
            engine=engine,
            seed=point.seed,
            track_state=point.track_state,
        )
        for point in points(seed=seed, **kwargs)
    ]
