"""Simulation-as-a-service: live sessions, snapshots, time travel.

The session daemon turns the resumable engine core into a product
surface: long-lived simulations are created, advanced in slices,
checkpointed into a content-addressed SQLite store, forked at any
checkpoint, rewound (time travel), and bisected against each other to
localize the first divergent interaction — over Python APIs, a CLI
(``repro-experiments session ...``), or a stdlib HTTP daemon.

Layers:

* :mod:`repro.sessiond.store` — durable, content-addressed snapshot
  store with session lineage and GC of dominated checkpoints.
* :mod:`repro.sessiond.manager` — live :class:`EngineSession` objects
  over the store: create/advance/fork/rewind/attach, free-running or
  driven by a recorded :class:`InteractionSchedule`.
* :mod:`repro.sessiond.bisect` — the first interaction where two
  sessions diverge: one lockstep replay from the last checkpoint
  whose outcome trails both sessions share.
* :mod:`repro.sessiond.service` / :mod:`repro.sessiond.cli` — the HTTP
  daemon and the command-line verbs.
"""

from .bisect import BisectReport, bisect_divergence
from .manager import ManagedSession, SessionManager, config_digest
from .service import SessionService
from .store import Checkpoint, SessionRow, SnapshotRow, SnapshotStore

__all__ = [
    "BisectReport",
    "bisect_divergence",
    "Checkpoint",
    "config_digest",
    "ManagedSession",
    "SessionManager",
    "SessionRow",
    "SessionService",
    "SnapshotRow",
    "SnapshotStore",
]
