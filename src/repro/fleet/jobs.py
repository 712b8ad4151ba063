"""Durable multi-scene job queue: leases, heartbeats, dead-letter.

One fleet sweep scans many scenes; each scene is one job.  The queue is
a single append-only JSONL event log (same crash contract as
:class:`~repro.robust.ScanJournal`, including torn-tail repair through
:func:`~repro.durable.load_jsonl_repaired`): every state
transition is one fsynced line, and opening the file replays the events
into the current state.  Nothing is ever rewritten, so a worker killed
mid-transition loses at most the line in flight — and a torn line is
truncated away on the next open.

Semantics:

* :meth:`JobQueue.submit` registers a scene job (idempotent for an
  identical payload — resubmitting a sweep manifest is safe);
* :meth:`JobQueue.claim` hands the next runnable job to an owner under
  a **lease** that expires ``lease_ttl_s`` later; :meth:`heartbeat`
  extends it.  A lease that expires un-heartbeated means its owner
  crashed mid-scan: the job becomes claimable again, the lost lease is
  journaled, and the crashed run counts as an attempt;
* :meth:`JobQueue.fail` schedules a retry with the exponential backoff
  of :class:`~repro.nas.retry.RetryPolicy` (``not_before`` gates the
  next claim) until the policy's ``max_attempts`` is spent, after which
  the job moves to the **dead-letter** state — visible in
  :meth:`dead_letters`, never silently dropped, never retried;
* :meth:`JobQueue.complete` finishes a job and records its result
  summary.

The queue stores *job* state only; per-tile scan durability belongs to
each scene's :class:`~repro.robust.ScanJournal`, which is why a
reclaimed job resumes its journal instead of rescanning from zero.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..durable import append_jsonl, load_jsonl_repaired
from ..nas.retry import RetryPolicy

__all__ = ["JobQueue", "ScanJob", "JobQueueError",
           "PENDING", "LEASED", "DONE", "DEAD"]

_HEADER_KIND = "fleet_queue"
_QUEUE_VERSION = 1

PENDING = "pending"
LEASED = "leased"
DONE = "done"
DEAD = "dead"


class JobQueueError(RuntimeError):
    """Corrupt queue file, or an event that violates job state."""


@dataclass(frozen=True)
class ScanJob:
    """Caller-facing snapshot of one job at claim time."""

    job_id: str
    payload: dict
    attempts: int                 # attempts *started*, this claim included
    lease_owner: str
    lease_expires_at: float       # wall clock (time.time())


class _JobState:
    """Mutable replay state of one job (internal)."""

    __slots__ = ("job_id", "payload", "status", "attempts", "not_before",
                 "lease_owner", "lease_expires_at", "error", "result")

    def __init__(self, job_id: str, payload: dict) -> None:
        self.job_id = job_id
        self.payload = payload
        self.status = PENDING
        self.attempts = 0
        self.not_before = 0.0
        self.lease_owner: str | None = None
        self.lease_expires_at = 0.0
        self.error: str | None = None
        self.result: dict | None = None

    def lease_live(self, now: float) -> bool:
        return self.status == LEASED and now < self.lease_expires_at


class JobQueue:
    """Crash-safe JSONL job queue for fleet scans.

    Parameters
    ----------
    path        : the event-log file; created (with a header line) if
                  absent, replayed if present.
    retry       : per-job retry policy — ``max_attempts`` counts every
                  attempt *started* (including leases lost to a crash),
                  and ``delay`` spaces the retries out.
    lease_ttl_s : seconds a claim stays valid without a heartbeat.
    seed        : seeds the backoff jitter RNG (deterministic tests).
    clock       : wall-clock source, injectable for lease-expiry tests.
    """

    def __init__(self, path: str | Path, *,
                 retry: RetryPolicy | None = None,
                 lease_ttl_s: float = 60.0,
                 seed: int = 0,
                 clock=time.time) -> None:
        if lease_ttl_s <= 0:
            raise ValueError("lease_ttl_s must be positive")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.retry = retry or RetryPolicy()
        self.lease_ttl_s = lease_ttl_s
        self._clock = clock
        self._rng = np.random.default_rng(seed)
        self._lock = threading.Lock()
        self._jobs: dict[str, _JobState] = {}
        self._replay()

    # -- durability --------------------------------------------------------

    def _replay(self) -> None:
        events = load_jsonl_repaired(self.path)
        if not events:
            append_jsonl(self.path, [{"kind": _HEADER_KIND,
                                      "version": _QUEUE_VERSION}])
            return
        head = events[0]
        if head.get("kind") != _HEADER_KIND:
            raise JobQueueError(f"{self.path}: not a fleet queue file")
        if head.get("version") != _QUEUE_VERSION:
            raise JobQueueError(
                f"{self.path}: unsupported queue version {head.get('version')}"
            )
        for event in events[1:]:
            self._apply(event)

    def _apply(self, event: dict) -> None:
        kind = event.get("kind")
        job_id = event.get("job_id")
        if kind == "job":
            self._jobs.setdefault(job_id,
                                  _JobState(job_id, event["payload"]))
            return
        state = self._jobs.get(job_id)
        if state is None:
            raise JobQueueError(
                f"{self.path}: event for unknown job {job_id!r}"
            )
        if kind == "lease":
            state.status = LEASED
            state.attempts = int(event["attempt"])
            state.lease_owner = event["owner"]
            state.lease_expires_at = float(event["expires_at"])
        elif kind == "heartbeat":
            state.lease_expires_at = float(event["expires_at"])
        elif kind == "expired":
            state.status = PENDING
            state.lease_owner = None
            state.error = event.get("error")
        elif kind == "failed":
            state.status = PENDING
            state.lease_owner = None
            state.not_before = float(event["not_before"])
            state.error = event.get("error")
        elif kind == "done":
            state.status = DONE
            state.lease_owner = None
            state.result = event.get("result")
        elif kind == "dead":
            state.status = DEAD
            state.lease_owner = None
            state.error = event.get("error")
        else:
            raise JobQueueError(
                f"{self.path}: unknown event kind {kind!r}"
            )

    def _record(self, event: dict) -> None:
        """Apply + append: memory first (validation), disk second."""
        self._apply(event)
        append_jsonl(self.path, [event])

    # -- producer side -----------------------------------------------------

    def submit(self, job_id: str, payload: dict) -> bool:
        """Register a job; returns False if it already exists.

        Resubmitting with an identical payload is a no-op (sweep
        manifests can be re-applied after a crash); a *different*
        payload under the same id raises — two scans must never share a
        job identity.
        """
        with self._lock:
            existing = self._jobs.get(job_id)
            if existing is not None:
                if existing.payload != payload:
                    raise JobQueueError(
                        f"job {job_id!r} already exists with a different "
                        f"payload"
                    )
                return False
            self._record({"kind": "job", "job_id": job_id,
                          "payload": payload})
            return True

    # -- consumer side -----------------------------------------------------

    def claim(self, owner: str) -> ScanJob | None:
        """Lease the next runnable job to ``owner`` (None when idle).

        Runnable means: pending with its retry backoff elapsed, or
        leased by an owner whose lease expired (that owner is presumed
        crashed; the expiry is journaled and its attempt stays spent).
        Jobs are scanned in submission order, so a sweep drains
        deterministically under a single consumer.
        """
        now = self._clock()
        with self._lock:
            for state in self._jobs.values():
                if state.status == LEASED and not state.lease_live(now):
                    self._record({
                        "kind": "expired", "job_id": state.job_id,
                        "error": f"lease by {state.lease_owner!r} expired",
                    })
                if state.status != PENDING or now < state.not_before:
                    continue
                if state.attempts >= self.retry.max_attempts:
                    # budget spent by a lease that expired (the crash
                    # consumed the final attempt): dead-letter it here,
                    # since no owner is left to call fail()
                    self._record({
                        "kind": "dead", "job_id": state.job_id,
                        "error": state.error
                        or "retry budget exhausted by lost leases",
                    })
                    continue
                self._record({
                    "kind": "lease", "job_id": state.job_id,
                    "owner": owner, "attempt": state.attempts + 1,
                    "expires_at": now + self.lease_ttl_s,
                })
                return ScanJob(
                    job_id=state.job_id, payload=state.payload,
                    attempts=state.attempts, lease_owner=owner,
                    lease_expires_at=state.lease_expires_at,
                )
        return None

    def _held(self, job_id: str, owner: str) -> _JobState:
        state = self._jobs.get(job_id)
        if state is None:
            raise JobQueueError(f"unknown job {job_id!r}")
        if state.status != LEASED or state.lease_owner != owner:
            raise JobQueueError(
                f"job {job_id!r} is not leased by {owner!r} "
                f"(status={state.status}, owner={state.lease_owner!r})"
            )
        return state

    def heartbeat(self, job_id: str, owner: str) -> float:
        """Extend ``owner``'s lease; returns the new expiry instant.

        Raises if the lease was lost (expired and reclaimed) — the
        owner must stop working on a job it no longer holds.
        """
        now = self._clock()
        with self._lock:
            state = self._held(job_id, owner)
            if not state.lease_live(now):
                raise JobQueueError(
                    f"job {job_id!r}: lease expired before heartbeat"
                )
            self._record({"kind": "heartbeat", "job_id": job_id,
                          "owner": owner,
                          "expires_at": now + self.lease_ttl_s})
            return state.lease_expires_at

    def complete(self, job_id: str, owner: str,
                 result: dict | None = None) -> None:
        """Finish a held job, recording a small JSON result summary."""
        with self._lock:
            self._held(job_id, owner)
            self._record({"kind": "done", "job_id": job_id,
                          "result": result})

    def fail(self, job_id: str, owner: str, error: str) -> str:
        """Record a failed attempt; returns the job's new status.

        Under the retry budget the job returns to pending with an
        exponential-backoff ``not_before`` gate; at the budget it moves
        to the dead-letter state for operator inspection.
        """
        now = self._clock()
        with self._lock:
            state = self._held(job_id, owner)
            if state.attempts >= self.retry.max_attempts:
                self._record({"kind": "dead", "job_id": job_id,
                              "error": error})
                return DEAD
            delay = self.retry.delay(state.attempts, rng=self._rng)
            self._record({"kind": "failed", "job_id": job_id,
                          "error": error, "not_before": now + delay})
            return PENDING

    # -- introspection -----------------------------------------------------

    def job_ids(self) -> list[str]:
        with self._lock:
            return list(self._jobs)

    def status(self, job_id: str) -> str:
        """Current status, with expired leases reported as pending."""
        now = self._clock()
        with self._lock:
            state = self._jobs.get(job_id)
            if state is None:
                raise JobQueueError(f"unknown job {job_id!r}")
            if state.status == LEASED and not state.lease_live(now):
                return PENDING
            return state.status

    def attempts(self, job_id: str) -> int:
        with self._lock:
            state = self._jobs.get(job_id)
            if state is None:
                raise JobQueueError(f"unknown job {job_id!r}")
            return state.attempts

    def result(self, job_id: str) -> dict | None:
        with self._lock:
            state = self._jobs.get(job_id)
            if state is None:
                raise JobQueueError(f"unknown job {job_id!r}")
            return state.result

    def dead_letters(self) -> dict[str, str]:
        """``{job_id: last error}`` for every dead-lettered job."""
        with self._lock:
            return {s.job_id: s.error or "" for s in self._jobs.values()
                    if s.status == DEAD}

    def counts(self) -> dict[str, int]:
        """Jobs per status (expired leases counted as pending)."""
        now = self._clock()
        out = {PENDING: 0, LEASED: 0, DONE: 0, DEAD: 0}
        with self._lock:
            for state in self._jobs.values():
                status = state.status
                if status == LEASED and not state.lease_live(now):
                    status = PENDING
                out[status] += 1
        return out

    def drained(self) -> bool:
        """True when every job is done or dead-lettered."""
        counts = self.counts()
        return counts[PENDING] == 0 and counts[LEASED] == 0
