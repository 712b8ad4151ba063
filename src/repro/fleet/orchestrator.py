"""Multi-scene scan orchestration: the fleet's top layer.

:class:`ScanFleet` ties the other two fleet pieces together into a
crash-safe sweep over many scenes:

* the **job queue** (:class:`~repro.fleet.jobs.JobQueue`) durably owns
  which scenes exist, which one is running, and how many attempts each
  has burned — one process drains it at a time, and a process killed
  mid-sweep is restarted by opening a new fleet on the same file;
* each claimed scene scans through :func:`repro.detect.scan_scene` in
  robust journaled mode with ``resume=True``, so a retried job picks up
  at the exact tile its predecessor's crash left off — the per-tile
  durability lives in the scene's :class:`~repro.robust.ScanJournal`,
  not in the queue;
* a parallel scan's shards run on the pool's one dispatch loop under
  its :class:`~repro.scanpar.SupervisionPolicy`, so hung or dying pool
  workers cost redispatches, not jobs.

The fleet starts no thread of its own, so a sweep picks the start
method, ``"auto"`` verdict and shared pool of a plain scan from the same
process.
"""

from __future__ import annotations

import time
from dataclasses import asdict
from pathlib import Path

from ..detect.scan import ScanSpec, _check_timeout, scan_scene
from ..geo.scene import Scene, build_scene
from ..geo.synthesis import WatershedConfig
from .jobs import DEAD, JobQueue, ScanJob

__all__ = ["ScanFleet"]

#: seconds between claims while every pending job waits out a backoff
_POLL_S = 0.05


def _default_scene_provider(payload: dict) -> Scene:
    """Rebuild a scene from its job payload (deterministic in the
    config seed, so every retry scans identical pixels)."""
    return build_scene(WatershedConfig(**payload["scene"]))


def _scan_args(scan: dict) -> tuple[ScanSpec, float | None]:
    """A job's ``"scan"`` payload as ``(spec, timeout_s)``; a bad value
    raises ``ValueError`` before anything is queued or built."""
    scan = dict(scan)
    timeout_s = scan.pop("timeout_s", None)
    spec = ScanSpec.from_json(scan)
    _check_timeout(timeout_s)
    return spec, timeout_s


class ScanFleet:
    """Run a durable multi-scene scan sweep against one model.

    Parameters
    ----------
    queue          : the durable job queue — or a path, in which case a
                     :class:`JobQueue` with the default retry policy is
                     opened there.
    model          : the detector every job scans with.
    workdir        : directory for per-scene scan journals
                     (``<workdir>/<job_id>.journal.jsonl``).
    n_workers      : forwarded to :func:`~repro.detect.scan_scene` per
                     job (``"auto"`` adapts; 1 scans sequentially).
    pool           : the :class:`~repro.scanpar.WorkerPool` parallel
                     scans run on (its policy supervises their shards);
                     defaults to the shared pool.
    scene_provider : ``payload -> Scene`` hook; defaults to rebuilding
                     the scene from the payload's ``WatershedConfig``
                     dict.  Tests and benches inject prebuilt (or
                     deliberately damaged) scenes here.
    """

    def __init__(self, queue: JobQueue | str | Path, model, *,
                 workdir: str | Path,
                 n_workers: int | str = "auto",
                 pool=None,
                 scene_provider=None) -> None:
        self.queue = queue if isinstance(queue, JobQueue) \
            else JobQueue(queue)
        self.model = model
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.n_workers = n_workers
        self.pool = pool
        self.scene_provider = scene_provider or _default_scene_provider

    # -- submission --------------------------------------------------------

    def submit_scene(self, job_id: str,
                     config: WatershedConfig | None = None,
                     **scan_kwargs) -> bool:
        """Register one scene job; returns False if already queued.

        ``scan_kwargs`` pins :class:`~repro.detect.ScanSpec` fields and
        ``timeout_s``; a bad one raises before the queue is written.
        """
        _scan_args(scan_kwargs)
        payload = {"scene": asdict(config or WatershedConfig()),
                   "scan": scan_kwargs}
        return self.queue.submit(job_id, payload)

    def journal_path(self, job_id: str) -> Path:
        return self.workdir / f"{job_id}.journal.jsonl"

    # -- execution ---------------------------------------------------------

    def _scan_job(self, job: ScanJob) -> dict:
        """Scan one claimed job; returns the job's result summary.

        The payload's scan values are checked before its scene is built,
        so a job with a bad spec fails without generating pixels.
        """
        spec, timeout_s = _scan_args(job.payload.get("scan", {}))
        scene = self.scene_provider(job.payload)
        result = scan_scene(
            self.model, scene,
            journal=str(self.journal_path(job.job_id)),
            resume=True,
            n_workers=self.n_workers,
            pool=self.pool,
            timeout_s=timeout_s,
            **asdict(spec),
        )
        summary = {
            "detections": len(result),
            "tiles_total": result.coverage.tiles_total,
            "tiles_scanned": result.coverage.tiles_scanned,
            "tiles_quarantined": result.coverage.tiles_quarantined,
            "tiles_resumed": result.coverage.tiles_resumed,
            "attempt": job.attempts,
        }
        report = getattr(result, "supervision", None)
        if report is not None:
            summary["supervision"] = report.to_json()
        return summary

    def run_one(self) -> tuple[str, str, dict | None] | None:
        """Claim and run a single job.

        Returns ``(job_id, outcome, summary)`` where outcome is
        ``"done"``, ``"failed"`` (will retry) or ``"dead"``
        (dead-lettered, :meth:`JobQueue.fail`) — or None when nothing
        was claimable.  Scan exceptions are converted into queue state,
        not raised: one broken scene must not take down the sweep.
        """
        job = self.queue.claim()
        if job is None:
            return None
        try:
            summary = self._scan_job(job)
        except Exception as exc:
            status = self.queue.fail(job.job_id, exc)
            return job.job_id, "dead" if status == DEAD else "failed", None
        self.queue.complete(job.job_id, result=summary)
        return job.job_id, "done", summary

    def run(self) -> dict:
        """Drain the queue (every job done or dead); returns a sweep
        summary.

        A queue that is not drained but has nothing to claim is waiting
        out a retry backoff, which ``RetryPolicy.max_backoff_s`` bounds,
        so the sweep polls until the backoff elapses.
        """
        outcomes: dict[str, list[str]] = {}
        results: dict[str, dict] = {}
        while not self.queue.drained():
            step = self.run_one()
            if step is None:
                time.sleep(_POLL_S)
                continue
            job_id, outcome, summary = step
            outcomes.setdefault(job_id, []).append(outcome)
            if summary is not None:
                results[job_id] = summary
        return {
            "jobs_run": sum(map(len, outcomes.values())),
            "counts": self.queue.counts(),
            "dead_letters": self.queue.dead_letters(),
            "outcomes": outcomes,
            "results": results,
        }
