"""Campaign subsystem: resumable, cache-backed experiment sweeps.

Turns one-shot experiment scripts into durable campaigns: job specs
are content-addressed (:class:`JobSpec`), a SQLite store records every
job's status and results across invocations (:class:`CampaignStore`),
an executor drains the queue with retries and Ctrl-C checkpointing
(:func:`run_campaign`), figure grids decompose into independent jobs
(:func:`experiment_specs`), and an asyncio multi-tenant HTTP daemon
(:class:`AsyncCampaignService`: worker pool, streaming status, 429
backpressure) serves submit/status/result/metrics for detached
operation.  A load harness (:func:`run_closed_loop`,
:func:`run_open_loop`) drives it at campaign scale.  See
``docs/campaign.md``.
"""

from .executor import (
    CampaignReport,
    execute_spec,
    execute_spec_resumable,
    fetch_trial_set,
    run_campaign,
)
from .grids import GRID_EXPERIMENTS, experiment_specs
from .loadgen import LoadReport, make_specs, run_closed_loop, run_open_loop
from .service_v2 import AsyncCampaignService
from .spec import JobSpec
from .store import DEFAULT_TENANT, CampaignStore, JobRecord, StoreTrialCache

__all__ = [
    "JobSpec",
    "JobRecord",
    "CampaignStore",
    "StoreTrialCache",
    "CampaignReport",
    "AsyncCampaignService",
    "DEFAULT_TENANT",
    "LoadReport",
    "make_specs",
    "run_closed_loop",
    "run_open_loop",
    "execute_spec",
    "execute_spec_resumable",
    "fetch_trial_set",
    "run_campaign",
    "experiment_specs",
    "GRID_EXPERIMENTS",
]
