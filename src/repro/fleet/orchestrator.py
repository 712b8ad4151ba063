"""Multi-scene scan orchestration: the fleet's top layer.

:class:`ScanFleet` ties the other two fleet pieces together into a
crash-safe sweep over many scenes:

* the **job queue** (:class:`~repro.fleet.jobs.JobQueue`) durably owns
  which scenes exist, who is scanning them, and how many attempts each
  has burned — submit once, then any number of fleet processes can
  claim, crash, and retry without double-scanning or losing a scene;
* each claimed scene scans through :func:`repro.detect.scan_scene` in
  robust journaled mode with ``resume=True``, so a retried job picks up
  at the exact tile its predecessor's crash left off — the per-tile
  durability lives in the scene's :class:`~repro.robust.ScanJournal`,
  not in the queue;
* shard dispatch runs under the **supervisor**
  (:class:`~repro.scanpar.pool.ShardSupervisor`) whenever the fleet
  scans in parallel, so hung or dying pool workers cost redispatches,
  not jobs.

A heartbeat thread extends the job lease while the scan runs; if the
lease is lost anyway (the queue decided this process was dead), the
result is discarded rather than double-reported — whoever reclaimed the
job owns it now.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict
from pathlib import Path

from ..detect.scan import scan_scene
from ..geo.scene import Scene, build_scene
from ..geo.synthesis import WatershedConfig
from .jobs import JobQueue, JobQueueError, ScanJob

__all__ = ["ScanFleet"]

#: scan_scene kwargs a job payload may carry (whitelist: payloads come
#: from a durable file, not from code)
_SCAN_KEYS = frozenset({
    "window", "stride", "confidence_threshold", "nms_radius",
    "batch_size", "timeout_s",
})


def _default_scene_provider(payload: dict) -> Scene:
    """Rebuild a scene from its job payload (deterministic in the
    config seed, so every retry scans identical pixels)."""
    return build_scene(WatershedConfig(**payload["scene"]))


class _Heartbeat:
    """Background lease-extension while one job scans.

    ``lost`` flips when the queue refuses a heartbeat — the lease
    expired and may have been reclaimed — after which the owning fleet
    must discard its result instead of completing the job.
    """

    def __init__(self, queue: JobQueue, job: ScanJob,
                 interval_s: float) -> None:
        self._queue = queue
        self._job = job
        self._interval_s = interval_s
        self._stop = threading.Event()
        self.lost = False
        self._thread = threading.Thread(
            target=self._beat, name=f"fleet-heartbeat-{job.job_id}",
            daemon=True,
        )

    def _beat(self) -> None:
        while not self._stop.wait(self._interval_s):
            try:
                self._queue.heartbeat(self._job.job_id,
                                      self._job.lease_owner)
            except JobQueueError:
                self.lost = True
                return

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


class ScanFleet:
    """Run a durable multi-scene scan sweep against one model.

    Parameters
    ----------
    queue          : the durable job queue — or a path, in which case a
                     :class:`JobQueue` with default retry/lease settings
                     is opened there.
    model          : the detector every job scans with.
    workdir        : directory for per-scene scan journals
                     (``<workdir>/<job_id>.journal.jsonl``).
    n_workers      : forwarded to :func:`~repro.detect.scan_scene` per
                     job (``"auto"`` adapts; 1 scans sequentially).
    supervision    : ``repro.fleet.SupervisionPolicy`` (or ``True``)
                     for supervised shard dispatch on parallel scans.
    scene_provider : ``payload -> Scene`` hook; defaults to rebuilding
                     the scene from the payload's ``WatershedConfig``
                     dict.  Tests and benches inject prebuilt (or
                     deliberately damaged) scenes here.
    owner          : lease owner name; defaults to ``fleet-<pid>``.
    """

    def __init__(self, queue: JobQueue | str | Path, model, *,
                 workdir: str | Path,
                 n_workers: int | str = "auto",
                 supervision=None,
                 scene_provider=None,
                 owner: str | None = None) -> None:
        import os

        self.queue = queue if isinstance(queue, JobQueue) \
            else JobQueue(queue)
        self.model = model
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.n_workers = n_workers
        self.supervision = supervision
        self.scene_provider = scene_provider or _default_scene_provider
        self.owner = owner or f"fleet-{os.getpid()}"

    # -- submission --------------------------------------------------------

    def submit_scene(self, job_id: str,
                     config: WatershedConfig | None = None,
                     **scan_kwargs) -> bool:
        """Register one scene job; returns False if already queued.

        ``scan_kwargs`` whitelists the :func:`scan_scene` parameters a
        payload may pin (window, stride, timeout_s, ...).
        """
        unknown = set(scan_kwargs) - _SCAN_KEYS
        if unknown:
            raise ValueError(
                f"unsupported scan parameters {sorted(unknown)}; "
                f"allowed: {sorted(_SCAN_KEYS)}"
            )
        payload = {"scene": asdict(config or WatershedConfig()),
                   "scan": scan_kwargs}
        return self.queue.submit(job_id, payload)

    def journal_path(self, job_id: str) -> Path:
        return self.workdir / f"{job_id}.journal.jsonl"

    # -- execution ---------------------------------------------------------

    def _scan_job(self, job: ScanJob) -> dict:
        """Scan one claimed job; returns the job's result summary."""
        scene = self.scene_provider(job.payload)
        result = scan_scene(
            self.model, scene,
            journal=str(self.journal_path(job.job_id)),
            resume=True,
            n_workers=self.n_workers,
            supervision=self.supervision,
            **job.payload.get("scan", {}),
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
        ``"done"``, ``"failed"`` (will retry), ``"dead"``
        (dead-lettered), or ``"lease_lost"`` — or None when nothing was
        claimable.  Scan exceptions are converted into queue state, not
        raised: one broken scene must not take down the sweep.
        """
        job = self.queue.claim(self.owner)
        if job is None:
            return None
        interval = self.queue.lease_ttl_s / 3.0
        with _Heartbeat(self.queue, job, interval) as heartbeat:
            try:
                summary = self._scan_job(job)
            except Exception as exc:
                if heartbeat.lost:
                    return job.job_id, "lease_lost", None
                status = self.queue.fail(
                    job.job_id, self.owner,
                    f"{type(exc).__name__}: {exc}",
                )
                return (job.job_id,
                        "dead" if status == "dead" else "failed",
                        None)
        if heartbeat.lost:
            # someone else owns the job now; the journal keeps our tiles
            return job.job_id, "lease_lost", None
        self.queue.complete(job.job_id, self.owner, result=summary)
        return job.job_id, "done", summary

    def run(self, *, max_jobs: int | None = None,
            idle_wait_s: float = 0.05,
            max_idle_s: float = 30.0) -> dict:
        """Drain the queue; returns a sweep summary.

        Stops when the queue is drained (every job done or dead),
        ``max_jobs`` jobs have been run, or nothing has been claimable
        for ``max_idle_s`` (jobs leased by *other* owners, or retry
        backoffs far in the future).
        """
        outcomes: dict[str, list[str]] = {}
        results: dict[str, dict] = {}
        ran = 0
        idle_since: float | None = None
        while not self.queue.drained():
            if max_jobs is not None and ran >= max_jobs:
                break
            step = self.run_one()
            if step is None:
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                elif now - idle_since >= max_idle_s:
                    break
                time.sleep(idle_wait_s)
                continue
            idle_since = None
            ran += 1
            job_id, outcome, summary = step
            outcomes.setdefault(job_id, []).append(outcome)
            if summary is not None:
                results[job_id] = summary
        return {
            "owner": self.owner,
            "jobs_run": ran,
            "counts": self.queue.counts(),
            "dead_letters": self.queue.dead_letters(),
            "outcomes": outcomes,
            "results": results,
        }
