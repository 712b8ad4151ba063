"""Dynamic-batching inference service over a trained detector.

One long-lived :class:`InferenceService` turns the repo's synchronous
``predict`` loop into a request/response system:

* callers :meth:`~InferenceService.submit` single chips and receive
  ``concurrent.futures.Future`` objects;
* one model thread runs them through the compiled engine behind its
  guard (:class:`repro.robust.GuardedEngine`) in *open* micro-batches
  (:class:`~repro.serve.batching.BatchPolicy`).  The engine runs its
  conv trunk one chip at a time and only the head over the batch, so
  the thread starts the oldest request's trunk at once, admits queued
  requests of that chip shape between trunk runs, and closes the batch
  (queue empty, or ``max_batch`` admitted) only when the head runs.  A
  batch is cut from the queue only when the thread is free to run it,
  so whatever arrives while it is busy joins the next batch;
* an LRU cache keyed by chip content hash answers repeat tiles without
  touching the model;
* a bounded queue applies backpressure (:class:`QueueFullError`),
  per-request deadlines expire stale work (:class:`RequestTimeoutError`),
  and :meth:`~InferenceService.shutdown` drains in-flight requests before
  the thread exits;
* a circuit breaker (:class:`~repro.serve.breaker.CircuitBreaker`) guards
  the model thread against engine faults: a batch whose engine call
  raises, or whose answer fails the guard's check
  (:class:`repro.robust.EngineError`), is retried if
  :func:`repro.retry.retryable` allows, a non-finite row fails its own
  chip alone, consecutive batches with no chip answered trip the
  breaker, and while it is open the service runs in *degraded
  mode* — cache hits are still served, uncached requests fail fast with
  :class:`DegradedServiceError` until a half-open probe succeeds.

Telemetry lives in a :class:`~repro.serve.metrics.ServiceMetrics`
registry rendered through the ``repro.profiling`` report conventions.
"""

from __future__ import annotations

import threading
import time
import warnings
from collections import Counter, deque
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np

from ..detect.sppnet import SPPNetDetector
from ..retry import retryable
from ..robust.guard import EngineError, GuardedEngine, fault_reason
from .batching import BatchPolicy
from .breaker import OPEN, BreakerPolicy, CircuitBreaker
from .cache import LRUCache, chip_key
from .metrics import ServiceMetrics

__all__ = [
    "ServeError",
    "QueueFullError",
    "RequestTimeoutError",
    "ServiceStoppedError",
    "DegradedServiceError",
    "InvalidInputError",
    "DetectionResult",
    "InferenceService",
]


class ServeError(RuntimeError):
    """Base class for inference-service failures."""


class QueueFullError(ServeError):
    """Raised by submit() when the bounded queue is at capacity."""


class RequestTimeoutError(ServeError):
    """Set on a request future whose deadline expired before dispatch."""


class ServiceStoppedError(ServeError):
    """Raised when submitting to (or pending inside) a stopped service."""


class DegradedServiceError(ServeError):
    """The circuit breaker is open and the request is not in the cache."""


class InvalidInputError(ServeError):
    """The submitted chip failed admission validation (non-finite pixels
    or policy-defined damage).  Rejecting it at submit keeps one bad chip
    from poisoning the whole micro-batch it would have ridden in."""


@dataclass(frozen=True)
class DetectionResult:
    """Per-request model output.

    confidence : crossing probability (softmax class 1)
    box        : normalized (cx, cy, w, h) in chip coordinates
    cached     : True when served from the LRU cache
    batch_size : size of the micro-batch this request rode in (0 if cached)
    """

    confidence: float
    box: np.ndarray
    cached: bool = False
    batch_size: int = 0


class _Pending:
    """One queued request: chip, future, bookkeeping timestamps."""

    __slots__ = ("chip", "key", "future", "deadline", "enqueued_at")

    def __init__(self, chip: np.ndarray, key: str,
                 deadline: float | None) -> None:
        self.chip = chip
        self.key = key
        self.future: Future[DetectionResult] = Future()
        self.deadline = deadline
        self.enqueued_at = time.monotonic()

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline


class InferenceService:
    """Dynamic-batching, caching, metered inference front-end.

    Parameters
    ----------
    model       : trained (or untrained) :class:`SPPNetDetector`
    policy      : batching policy; defaults to ``BatchPolicy()``
                  (see :func:`~repro.serve.batching.policy_from_fig6`
                  to tune it from a Figure 6 artifact)
    max_queue   : bounded-queue capacity; submits beyond it raise
                  :class:`QueueFullError`
    cache_size  : LRU entries (0 disables caching)
    breaker     : :class:`~repro.serve.breaker.BreakerPolicy` for the
                  model-thread circuit breaker (None = defaults)
    max_batch_retries : immediate re-runs of a failed micro-batch before
                  its futures fail and the breaker counts the failure; an
                  error :func:`repro.retry.retryable` refuses (an
                  :class:`~repro.robust.EngineError`) fails it at once
    backend     : ``"engine"``, its only value: the model is compiled at
                  service start (:func:`repro.engine.compiled_for`) and
                  every batch runs through the *guarded* compiled program
                  (:class:`repro.robust.GuardedEngine`), whose outputs are
                  checked for non-finite values and shape mismatches; a
                  violation fails the batch with
                  :class:`~repro.robust.EngineError`, and every engine
                  fault is tallied in the metrics snapshot's
                  ``fallback_by_reason``.  Any other value raises
                  ``ValueError``
    engine      : a pre-built :class:`~repro.robust.GuardedEngine` to
                  serve with; lets tests inject faulty compiled programs
                  and deployments share one compile across services
    validate    : admission control for :meth:`submit`.  ``True``
                  (default) rejects chips with non-finite pixels
                  (:meth:`~repro.robust.SanitizePolicy.for_serving`);
                  ``False`` disables validation.  Rejections raise
                  :class:`InvalidInputError` and count in
                  ``metrics.invalid_inputs``.

    Every model call runs on one thread, ``serve-worker``: the engine
    runs one call at a time under its lock, so a second thread would
    only wait for it.  The service answers chips; a scene is scanned
    with :func:`repro.detect.scan_scene` (or a
    :class:`repro.fleet.ScanFleet`) on ``service.model``.  Such a scan
    shares the service's compiled program and takes the engine lock
    once per micro-batch, so requests are answered between its
    micro-batches instead of queueing behind the whole scan.

    Use as a context manager or call :meth:`shutdown` explicitly —
    the model thread is not a daemon.
    """

    def __init__(
        self,
        model: SPPNetDetector,
        policy: BatchPolicy | None = None,
        *,
        max_queue: int = 1024,
        cache_size: int = 512,
        breaker: BreakerPolicy | None = None,
        max_batch_retries: int = 1,
        backend: str = "engine",
        engine=None,
        validate: bool = True,
    ) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if max_batch_retries < 0:
            raise ValueError("max_batch_retries must be >= 0")
        if not isinstance(validate, bool):
            raise TypeError(f"validate must be True or False, got {validate!r}")
        if backend != "engine":
            raise ValueError(
                f"backend={backend!r}: InferenceService serves through its "
                "guarded compiled engine only; 'engine' is the one "
                "accepted value, and the keyword goes with ROADMAP item 1")
        self.model = model
        self.policy = policy if policy is not None else BatchPolicy()
        self.max_queue = max_queue
        self.max_batch_retries = max_batch_retries
        self.cache: LRUCache[DetectionResult] = LRUCache(cache_size)
        self.metrics = ServiceMetrics()
        self.breaker = CircuitBreaker(
            breaker, on_transition=self.metrics.record_breaker_transition
        )
        self._validate_policy = None
        if validate:
            from ..robust.sanitize import SanitizePolicy

            self._validate_policy = SanitizePolicy.for_serving()
        if engine is None:
            engine = GuardedEngine(model)
        self.engine = engine
        # an open batch closes at any size up to max_batch, so pre-build
        # the trunk and every head: no request binds inline
        try:
            warmup_ms = engine.warmup(range(1, self.policy.max_batch + 1))
        except Exception as exc:
            # a broken engine surfaces as failed batches, not as a
            # startup crash, but never silently
            warnings.warn(
                f"engine warm-up failed ({type(exc).__name__}: {exc}); "
                "serving without pre-built programs", RuntimeWarning,
                stacklevel=2)
            warmup_ms = 0.0
        self.metrics.warmup_ms.set(warmup_ms)

        self._queue: deque[_Pending] = deque()
        # O(1) batching bookkeeping: same-shape counts decide what an
        # open batch may admit and deadline_count gates the expiry scan,
        # so a wake never walks the queue in the common (uniform,
        # no-deadline) case
        self._shape_counts: Counter[tuple] = Counter()
        self._deadline_count = 0
        self._cond = threading.Condition()
        self._stopping = False
        self._draining = True
        self._worker = threading.Thread(target=self._work_loop,
                                        name="serve-worker")
        self._worker.start()

    # ------------------------------------------------------------------
    # client surface
    # ------------------------------------------------------------------
    def __enter__(self) -> InferenceService:
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def submit(self, chip: np.ndarray,
               timeout_s: float | None = None) -> Future[DetectionResult]:
        """Queue one (C, H, W) chip; returns a future of DetectionResult.

        ``timeout_s`` is a dispatch deadline: if the request is still
        queued when it expires, its future fails with
        :class:`RequestTimeoutError`.  Raises :class:`QueueFullError`
        immediately when the bounded queue is at capacity,
        :class:`InvalidInputError` when the chip fails the admission
        policy (so one NaN chip cannot poison a whole micro-batch), and
        :class:`ServiceStoppedError` after shutdown began.
        """
        if chip.ndim != 3:
            raise ValueError(f"expected one (C, H, W) chip, got shape {chip.shape}")
        self.metrics.submitted.inc()
        if self._validate_policy is not None:
            from ..robust.sanitize import validate_chip

            report = validate_chip(chip, self._validate_policy)
            if not report.ok:
                self.metrics.invalid_inputs.inc()
                raise InvalidInputError(
                    f"chip failed input validation: {report.summary()}"
                )

        key = chip_key(chip) if self.cache.capacity else ""
        degraded = self.breaker.state == OPEN
        if self.cache.capacity:
            hit = self.cache.get(key)
            if hit is not None:
                self.metrics.cache_hits.inc()
                if degraded:
                    self.metrics.degraded_served.inc()
                self.metrics.completed.inc()
                self.metrics.latency_ms.observe(0.0)
                future: Future[DetectionResult] = Future()
                future.set_result(
                    DetectionResult(hit.confidence, hit.box, cached=True))
                return future
            self.metrics.cache_misses.inc()

        if degraded:
            # cache-only mode: fail fast instead of queueing work the
            # tripped model thread would only reject later
            self.metrics.degraded_rejected.inc()
            raise DegradedServiceError(
                "circuit breaker open: model unavailable and "
                "result not cached"
            )

        deadline = time.monotonic() + timeout_s if timeout_s is not None else None
        pending = _Pending(np.asarray(chip, dtype=np.float32), key, deadline)
        with self._cond:
            if self._stopping:
                self.metrics.rejected.inc()
                raise ServiceStoppedError("service is shut down")
            if len(self._queue) >= self.max_queue:
                self.metrics.rejected.inc()
                raise QueueFullError(
                    f"queue full ({self.max_queue} requests waiting)"
                )
            self._queue.append(pending)
            self._shape_counts[pending.chip.shape] += 1
            if pending.deadline is not None:
                self._deadline_count += 1
            self.metrics.queue_depth.set(len(self._queue))
            self._cond.notify()
        return pending.future

    def submit_many(self, chips: np.ndarray | list[np.ndarray],
                    timeout_s: float | None = None) -> list[Future[DetectionResult]]:
        """Submit a stack of chips; returns one future per chip."""
        return [self.submit(chip, timeout_s=timeout_s) for chip in chips]

    def shutdown(self, drain: bool = True, timeout_s: float | None = None) -> None:
        """Stop the service.

        With ``drain=True`` (default) already-queued requests are still
        batched and completed; with ``drain=False`` they fail with
        :class:`ServiceStoppedError`.  New submits are rejected either
        way.  Idempotent.
        """
        with self._cond:
            self._stopping = True
            self._draining = drain
            self._cond.notify_all()
        self._worker.join(timeout=timeout_s)

    @property
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    # ------------------------------------------------------------------
    # the model thread
    # ------------------------------------------------------------------
    def _work_loop(self) -> None:
        while (opening := self._next_opening()) is not None:
            self._run_batch(opening)

    def _next_opening(self) -> _Pending | None:
        """Wait until a request is queued, then pop the oldest one: the
        opening request of the next micro-batch.

        Called only when the model thread is free, so the cut is
        late-bound: nothing is held out of the queue while the model is
        busy.  Expired requests are timed out while waiting, so a
        timeout never needs its own timer thread (submit and shutdown
        notify).  Returns None when the thread should exit instead,
        after failing whatever is still queued.
        """
        with self._cond:
            while True:
                self._expire_locked()
                if self._queue and (self._draining or not self._stopping):
                    return self._pop_locked(self._queue[0].chip.shape)
                if self._stopping:
                    break
                self._cond.wait()
            # non-draining shutdown, or nothing left to drain
            leftovers = list(self._queue)
            self._queue.clear()
            self._shape_counts.clear()
            self._deadline_count = 0
            self.metrics.queue_depth.set(0)
        for pending in leftovers:
            pending.future.set_exception(
                ServiceStoppedError("service shut down before dispatch")
            )
        return None

    def _pop_locked(self, shape: tuple) -> _Pending:
        """Pop the oldest queued request of ``shape`` (SPP accepts any
        chip size, but one batch must share H and W)."""
        skipped: deque[_Pending] = deque()
        pending = self._queue.popleft()
        while pending.chip.shape != shape:
            skipped.append(pending)
            pending = self._queue.popleft()
        self._queue.extendleft(reversed(skipped))
        self._shape_counts[shape] -= 1
        if not self._shape_counts[shape]:
            del self._shape_counts[shape]
        if pending.deadline is not None:
            self._deadline_count -= 1
        self.metrics.queue_depth.set(len(self._queue))
        return pending

    def _expire_locked(self) -> None:
        if not self._deadline_count:
            return
        now = time.monotonic()
        alive: deque[_Pending] = deque()
        for pending in self._queue:
            if pending.expired(now):
                self.metrics.timeouts.inc()
                self._deadline_count -= 1
                self._shape_counts[pending.chip.shape] -= 1
                if not self._shape_counts[pending.chip.shape]:
                    del self._shape_counts[pending.chip.shape]
                pending.future.set_exception(RequestTimeoutError(
                    f"request waited {now - pending.enqueued_at:.3f}s, "
                    "deadline passed before dispatch"
                ))
            else:
                alive.append(pending)
        if len(alive) != len(self._queue):
            self._queue.clear()
            self._queue.extend(alive)
            self.metrics.queue_depth.set(len(self._queue))

    def _timed_out(self, pending: _Pending, now: float) -> bool:
        """Fail ``pending`` if its deadline passed while it waited to
        join an open batch."""
        if not pending.expired(now):
            return False
        self.metrics.timeouts.inc()
        pending.future.set_exception(RequestTimeoutError(
            f"request waited {now - pending.enqueued_at:.3f}s, "
            "deadline passed before inference"
        ))
        return True

    def _admit_locked(self, shape: tuple) -> _Pending | None:
        """Pop the oldest live queued request of ``shape`` for an open
        batch, failing expired ones on the way; None when none waits."""
        while self._shape_counts[shape]:
            pending = self._pop_locked(shape)
            if not self._timed_out(pending, time.monotonic()):
                return pending
        return None

    def _run_batch(self, opening: _Pending) -> None:
        """Run the open micro-batch ``opening`` starts on this thread and
        answer its futures.

        The guarded engine pulls the batch's chips one at a time, each
        just before that chip's trunk runs: first the opening request,
        then queued requests of the same chip shape — appended to the
        batch, so results, cache fills, metrics and a retry cover them —
        until none waits (``queue_empty``), a non-draining shutdown
        began (``draining``) or ``max_batch`` chips are in
        (``max_batch``).  A retry re-runs the same open batch: its
        admitted members first, then whatever it may still admit.  An
        answer with non-finite rows for some of its chips (a chip whose
        finite pixels overflow the network) fails only those chips'
        futures, with the guard's :class:`~repro.robust.EngineError`;
        the breaker counts a failure only when no chip was answered.
        """
        started = time.monotonic()
        if not self.breaker.allow():
            # tripped while this request was queued: cache-only
            self._serve_degraded(opening)
            return
        batch = [opening]

        def admitted():
            # runs inside the engine, with the engine lock held:
            # never blocks, and nothing that holds _cond calls the
            # engine (lock order engine -> _cond)
            nonlocal closed_by
            yield from [p.chip for p in batch]
            shape = opening.chip.shape
            while True:
                with self._cond:
                    if self._stopping and not self._draining:
                        # the rest of the queue is being failed
                        closed_by = "draining"
                        return
                    pending = self._admit_locked(shape)
                if pending is None:
                    closed_by = "queue_empty"
                    return
                batch.append(pending)
                yield pending.chip

        attempts = 0
        fault = None        # an EngineError whose rows fail alone
        while True:
            attempts += 1
            closed_by = "max_batch"     # unless the pull ends first
            try:
                confidences, boxes = self.engine.predict_stream(
                    admitted(), self.policy.max_batch)
                self.breaker.record_success()
                break
            except BaseException as exc:
                self.metrics.worker_failures.inc()
                self.metrics.record_engine_fault(fault_reason(exc))
                if (isinstance(exc, EngineError)
                        and 0 < len(exc.rows) < len(batch)):
                    # a row is its own chip's: the fault stays in the
                    # chips it names, and the engine answered the rest
                    fault = exc
                    confidences, boxes = exc.answer
                    self.breaker.record_success()
                    break
                if attempts > self.max_batch_retries or not retryable(exc):
                    # propagate to every waiting caller
                    self.breaker.record_failure()
                    for pending in batch:
                        if not pending.future.done():
                            pending.future.set_exception(exc)
                    return
                self.metrics.worker_retries.inc()
        now = time.monotonic()
        self.metrics.observe_batch(len(batch), (now - started) * 1e3,
                                   closed_by)
        for row, (pending, conf, box) in enumerate(
                zip(batch, confidences, boxes)):
            if fault is not None and row in fault.rows:
                pending.future.set_exception(fault)
                continue
            result = DetectionResult(float(conf), box.copy(), cached=False,
                                     batch_size=len(batch))
            self.cache.put(pending.key, result)
            self.metrics.completed.inc()
            self.metrics.latency_ms.observe((now - pending.enqueued_at) * 1e3)
            pending.future.set_result(result)

    def _serve_degraded(self, pending: _Pending) -> None:
        """Cache-only answer for a request the open breaker refused.

        A request whose chip was cached since it queued is still served
        (marked degraded); otherwise it fails with
        :class:`DegradedServiceError` rather than touching the model.
        """
        hit = self.cache.get(pending.key) if self.cache.capacity else None
        if hit is None:
            self.metrics.degraded_rejected.inc()
            pending.future.set_exception(DegradedServiceError(
                "circuit breaker open: model unavailable and "
                "result not cached"
            ))
            return
        self.metrics.degraded_served.inc()
        self.metrics.completed.inc()
        self.metrics.latency_ms.observe(
            (time.monotonic() - pending.enqueued_at) * 1e3
        )
        pending.future.set_result(
            DetectionResult(hit.confidence, hit.box, cached=True))
