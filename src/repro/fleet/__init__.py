"""repro.fleet — supervised multi-scene scan orchestration.

The scan stack below this package is already crash-*safe* (journals,
resume, byte-identical parallel merge); this package makes it
crash-*surviving* at two levels:

* :class:`ShardSupervisor` — shard-level: per-shard deadlines,
  hung/dead worker kill-and-revive with redispatch, poison-shard
  quarantine with inline fallback, all without breaking the
  deterministic-merge byte-identity contract.  It and its
  :class:`SupervisionPolicy` / :class:`SupervisionReport` live beside
  the pool's one dispatch loop in :mod:`repro.scanpar.pool`;
* :mod:`~repro.fleet.jobs` — scene-level: a durable JSONL job queue
  with leases, heartbeats, exponential-backoff retries
  (:class:`~repro.nas.retry.RetryPolicy`), and a dead-letter state;
* :mod:`~repro.fleet.orchestrator` — the sweep: claim a scene, scan it
  journaled-and-resumable under supervision, complete or retry.

See ``docs/fleet.md``.
"""

from ..scanpar.pool import ShardSupervisor, SupervisionPolicy, SupervisionReport
from .jobs import DEAD, DONE, LEASED, PENDING, JobQueue, JobQueueError, ScanJob
from .orchestrator import ScanFleet

__all__ = [
    "SupervisionPolicy",
    "SupervisionReport",
    "ShardSupervisor",
    "JobQueue",
    "JobQueueError",
    "ScanJob",
    "PENDING",
    "LEASED",
    "DONE",
    "DEAD",
    "ScanFleet",
]
