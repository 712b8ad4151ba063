"""Per-shard supervision for pool scans: deadlines, revival, poison
quarantine.

The fleet needs scans that *finish* in the presence of misbehaving
workers.  :class:`ShardSupervisor` runs the pool's one dispatch loop
(:mod:`repro.scanpar.pool`, one shard in flight per worker) under a
:class:`SupervisionPolicy`, where :meth:`WorkerPool.run
<repro.scanpar.pool.WorkerPool.run>` runs it with one attempt and fails
on the first lost shard:

* every in-flight shard carries a deadline
  (:attr:`SupervisionPolicy.shard_deadline_s`); a worker that misses it
  is presumed hung and is killed — after a last ``poll(0)`` drain, so a
  just-in-time answer is never discarded — then replaced, and the shard
  is redispatched to another worker;
* a worker that *dies* mid-shard (OOM kill, segfault, SIGKILL) is
  detected through its process sentinel the moment it exits, replaced,
  and its shard redispatched;
* a shard that fails :attr:`SupervisionPolicy.max_attempts` times is a
  **poison shard**: it is quarantined out of the pool and degrades to
  inline sequential execution in the parent after the pool phase, so
  one pathological shard can neither wedge the scan nor break the
  deterministic merge — the inline run produces exactly the bytes a
  worker would have;
* an overall ``deadline_at`` (the per-request deadline propagated from
  ``serve.InferenceService.scan_scene(timeout_s=...)``) aborts the run
  with :class:`~repro.detect.scan.ScanDeadlineError`, salvaging every
  buffered reply and killing the stragglers so the pool stays clean.

Because redispatch hands the *same* :class:`~repro.scanpar.worker.ShardTask`
to the replacement worker — same origin range, same batch boundaries,
same result slab — recovery is invisible to the merge: detections stay
byte-identical to the fault-free sequential scan.  The classes live
beside the loop in :mod:`repro.scanpar.pool`; this module names them
for the fleet.
"""

from ..scanpar.pool import ShardSupervisor, SupervisionPolicy, SupervisionReport

__all__ = ["SupervisionPolicy", "SupervisionReport", "ShardSupervisor"]
