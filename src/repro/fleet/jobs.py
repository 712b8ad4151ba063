"""Durable multi-scene job queue: retries, dead-letter, crash replay.

One fleet sweep scans many scenes; each scene is one job.  The queue is
a single append-only JSONL event log, a :class:`~repro.durable.Log`
(the crash contract and header check of every durable log): every state
transition is one fsynced line, and opening the file replays the events
into the current state.  Nothing is ever rewritten, so a process killed
mid-transition loses at most the line in flight — and a torn line is
truncated away on the next open.

One process owns a queue file at a time: it replays the file once, at
open, and from then on its memory is the truth.  Semantics:

* :meth:`JobQueue.submit` registers a scene job (idempotent for an
  identical payload — resubmitting a sweep manifest is safe);
* :meth:`JobQueue.claim` starts the next runnable job (``RUNNING``) and
  spends one attempt;
* :meth:`JobQueue.fail` schedules a retry with the exponential backoff
  of :class:`~repro.retry.RetryPolicy` (``not_before`` gates the next
  claim); once ``max_attempts`` is spent, or at once for an error
  :func:`~repro.retry.retryable` refuses, the job is **dead-lettered**
  — visible in :meth:`dead_letters`, never silently dropped or retried;
* :meth:`JobQueue.complete` finishes a job and records its result
  summary.

Crash recovery is replay: a job whose last event is its start was
interrupted (its process died mid-scan), so it reopens ``PENDING`` and
is claimable at once, with the interrupted attempt still spent.  The
queue stores *job* state only; per-tile scan durability belongs to
each scene's :class:`~repro.robust.ScanJournal`, which is why a
reclaimed job resumes its journal instead of rescanning from zero.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..durable import Log
from ..retry import Permanent, RetryPolicy, retryable

__all__ = ["JobQueue", "ScanJob", "JobQueueError",
           "PENDING", "RUNNING", "DONE", "DEAD"]

_HEADER_KIND = "fleet_queue"
_QUEUE_VERSION = 2

PENDING = "pending"
RUNNING = "running"
DONE = "done"
DEAD = "dead"


class JobQueueError(RuntimeError, Permanent):
    """Corrupt queue file, or an event that violates job state."""


@dataclass(frozen=True)
class ScanJob:
    """Caller-facing snapshot of one job at claim time."""

    job_id: str
    payload: dict
    attempts: int                 # attempts *started*, this claim included


@dataclass
class _JobState:
    """Mutable replay state of one job (internal)."""

    job_id: str
    payload: dict
    status: str = PENDING
    attempts: int = 0
    not_before: float = 0.0
    error: str | None = None
    result: dict | None = None


class JobQueue:
    """Crash-safe JSONL job queue for fleet scans.

    Parameters
    ----------
    path  : the event-log file; created (with a header line) if absent,
            replayed if present.
    retry : per-job retry policy — ``max_attempts`` counts every attempt
            *started* (including ones a crash interrupted), and
            ``delay`` spaces the retries out.
    seed  : seeds the backoff jitter RNG (deterministic tests).
    clock : wall-clock source for the backoff gate, injectable for tests.
    """

    def __init__(self, path: str | Path, *,
                 retry: RetryPolicy | None = None,
                 seed: int = 0,
                 clock=time.time) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.retry = retry or RetryPolicy()
        self._clock = clock
        self._rng = np.random.default_rng(seed)
        self._lock = threading.Lock()
        self._jobs: dict[str, _JobState] = {}
        self._log = Log(self.path, {"kind": _HEADER_KIND,
                                    "version": _QUEUE_VERSION},
                        error=JobQueueError)
        self._replay()

    # -- durability --------------------------------------------------------

    def _replay(self) -> None:
        for event in self._log.open():
            self._apply(event)
        for state in self._jobs.values():
            if state.status == RUNNING:     # its process died mid-attempt
                state.status = PENDING

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
        if kind == "start":
            state.status = RUNNING
            state.attempts = int(event["attempt"])
        elif kind == "failed":
            state.status = PENDING
            state.not_before = float(event["not_before"])
            state.error = event.get("error")
        elif kind == "done":
            state.status = DONE
            state.result = event.get("result")
        elif kind == "dead":
            state.status = DEAD
            state.error = event.get("error")
        else:
            raise JobQueueError(
                f"{self.path}: unknown event kind {kind!r}"
            )

    def _record(self, event: dict) -> None:
        """Apply + append: memory first (validation), disk second."""
        self._apply(event)
        self._log.append([event])

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

    def claim(self) -> ScanJob | None:
        """Start the next runnable job (None when nothing is runnable).

        Runnable means pending with its retry backoff elapsed.  Jobs are
        scanned in submission order, so a sweep drains
        deterministically.
        """
        now = self._clock()
        with self._lock:
            for state in self._jobs.values():
                if state.status != PENDING or now < state.not_before:
                    continue
                if state.attempts >= self.retry.max_attempts:
                    # the final attempt was interrupted by a crash, so no
                    # fail() ever ran for it: dead-letter it here
                    self._record({
                        "kind": "dead", "job_id": state.job_id,
                        "error": f"attempt {state.attempts} interrupted; "
                                 "retry budget spent",
                    })
                    continue
                self._record({"kind": "start", "job_id": state.job_id,
                              "attempt": state.attempts + 1})
                return ScanJob(job_id=state.job_id, payload=state.payload,
                               attempts=state.attempts)
        return None

    def _running(self, job_id: str) -> _JobState:
        state = self._state(job_id)
        if state.status != RUNNING:
            raise JobQueueError(
                f"job {job_id!r} is not running (status={state.status})"
            )
        return state

    def complete(self, job_id: str, result: dict | None = None) -> None:
        """Finish a running job, recording a small JSON result summary."""
        with self._lock:
            self._running(job_id)
            self._record({"kind": "done", "job_id": job_id,
                          "result": result})

    def fail(self, job_id: str, exc: BaseException) -> str:
        """Record an attempt that raised ``exc``; returns the new status.

        A retryable error under the retry budget returns the job to
        pending with an exponential-backoff ``not_before`` gate; at the
        budget, or on an error no retry can change, it moves to the
        dead-letter state for operator inspection.
        """
        error = f"{type(exc).__name__}: {exc}"
        now = self._clock()
        with self._lock:
            state = self._running(job_id)
            if state.attempts >= self.retry.max_attempts or not retryable(exc):
                self._record({"kind": "dead", "job_id": job_id,
                              "error": error})
                return DEAD
            delay = self.retry.delay(state.attempts, rng=self._rng)
            self._record({"kind": "failed", "job_id": job_id,
                          "error": error, "not_before": now + delay})
            return PENDING

    # -- introspection -----------------------------------------------------

    def _state(self, job_id: str) -> _JobState:
        state = self._jobs.get(job_id)
        if state is None:
            raise JobQueueError(f"unknown job {job_id!r}")
        return state

    def job_ids(self) -> list[str]:
        with self._lock:
            return list(self._jobs)

    def status(self, job_id: str) -> str:
        with self._lock:
            return self._state(job_id).status

    def attempts(self, job_id: str) -> int:
        with self._lock:
            return self._state(job_id).attempts

    def result(self, job_id: str) -> dict | None:
        with self._lock:
            return self._state(job_id).result

    def dead_letters(self) -> dict[str, str]:
        """``{job_id: last error}`` for every dead-lettered job."""
        with self._lock:
            return {s.job_id: s.error or "" for s in self._jobs.values()
                    if s.status == DEAD}

    def counts(self) -> dict[str, int]:
        """Jobs per status."""
        out = {PENDING: 0, RUNNING: 0, DONE: 0, DEAD: 0}
        with self._lock:
            for state in self._jobs.values():
                out[state.status] += 1
        return out

    def drained(self) -> bool:
        """True when every job is done or dead-lettered."""
        counts = self.counts()
        return counts[PENDING] == 0 and counts[RUNNING] == 0
