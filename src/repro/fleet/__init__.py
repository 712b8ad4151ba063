"""repro.fleet — supervised multi-scene scan orchestration.

The scan stack below this package is already crash-*safe* (journals,
resume, byte-identical parallel merge); this package makes it
crash-*surviving* at two levels:

* shard-level, the pool's one dispatch loop
  (:meth:`repro.scanpar.WorkerPool.run`) under the pool's
  :class:`SupervisionPolicy`: per-shard deadlines, hung/dead worker
  kill-and-revive with redispatch, poison-shard quarantine with inline
  fallback, all without breaking the deterministic-merge byte-identity
  contract; every pooled scan carries its :class:`SupervisionReport`;
* :mod:`~repro.fleet.jobs` — scene-level: a durable JSONL job queue,
  owned by one process at a time, with exponential-backoff retries
  (:class:`~repro.retry.RetryPolicy`), a dead-letter state, and
  crash recovery by replay (an interrupted job reopens pending);
* :mod:`~repro.fleet.orchestrator` — the sweep: claim a scene, scan it
  journaled and resumable, complete or retry.

See ``docs/fleet.md``.
"""

from ..scanpar.pool import SupervisionPolicy, SupervisionReport
from .jobs import DEAD, DONE, PENDING, RUNNING, JobQueue, JobQueueError, ScanJob
from .orchestrator import ScanFleet

__all__ = [
    "SupervisionPolicy",
    "SupervisionReport",
    "JobQueue",
    "JobQueueError",
    "ScanJob",
    "PENDING",
    "RUNNING",
    "DONE",
    "DEAD",
    "ScanFleet",
]
