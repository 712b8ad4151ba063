"""Inference service behavior: batching, caching, backpressure, timeouts,
shutdown semantics, engine faults.

Uses a deliberately tiny SPP-Net so each micro-batch costs ~1 ms, and
the model behind a stalling engine double (``tests.faults.FaultyEngine``)
where the tests need the model thread to stay busy.
"""

import threading
import time

import numpy as np
import pytest

from repro.robust import EngineError, GuardedEngine
from repro.serve import (
    BatchPolicy,
    InferenceService,
    InvalidInputError,
    QueueFullError,
    RequestTimeoutError,
    ServiceStoppedError,
)
from tests.faults import FaultyEngine, InjectedFault

@pytest.fixture(scope="module")
def model(small_detector):
    return small_detector


def stalled(model, delay_s: float) -> FaultyEngine:
    """``model`` with every compiled batch ``delay_s`` longer."""
    return FaultyEngine(model, delay_s=delay_s)


def chips(n, size=24, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 4, size, size)).astype(np.float32)


class TestBatchingCore:
    def test_results_match_direct_predict(self, model):
        """Served answers are the guarded engine's called directly, bit
        for bit: the batch a chip lands in depends on arrival, but the
        engine's heads run whole 4-row blocks, so a row's bits do not."""
        batch = chips(12)
        conf, boxes, _ = GuardedEngine(model).predict_batch(batch)
        with InferenceService(model, BatchPolicy(max_batch=4)) as svc:
            results = [f.result(timeout=10) for f in svc.submit_many(batch)]
        for i, res in enumerate(results):
            assert res.confidence == float(conf[i])
            np.testing.assert_array_equal(res.box, boxes[i])

    def test_requests_are_coalesced(self, model):
        """A burst larger than max_batch dispatches in micro-batches, not
        one request at a time."""
        with InferenceService(model, BatchPolicy(max_batch=8)) as svc:
            with svc._cond:     # the whole burst queued before the cut
                futures = svc.submit_many(chips(16))
            for f in futures:
                f.result(timeout=10)
            hist = svc.metrics.batch_size_histogram
        assert hist == {8: 2}

    def test_mixed_shapes_batched_separately(self, model):
        """SPP accepts any chip size, but one batch must share a spatial
        shape — mixed submissions still all complete."""
        small, large = chips(3, size=24), chips(3, size=32)
        with InferenceService(model, BatchPolicy(max_batch=8)) as svc:
            futures = svc.submit_many([*small, *large])
            results = [f.result(timeout=10) for f in futures]
        assert len(results) == 6

    def test_invalid_chip_rejected(self, model):
        with InferenceService(model) as svc:
            with pytest.raises(ValueError):
                svc.submit(np.zeros((4, 24, 24, 1), dtype=np.float32))

    def test_engine_service_records_warmup(self, model):
        with InferenceService(model, BatchPolicy(max_batch=4)) as service:
            warmup_ms = service.metrics.snapshot()["warmup_ms"]
        assert warmup_ms > 0.0

    def test_a_failed_warmup_warns_and_the_service_still_serves(self, model):
        broken = FaultyEngine(model, failures=1, exc=RuntimeError,
                              on=("warmup",))
        with pytest.warns(RuntimeWarning, match="injected engine fault"):
            with InferenceService(broken, BatchPolicy(max_batch=4)) as svc:
                result = svc.submit(chips(1)[0]).result(timeout=10)
                warmup_ms = svc.metrics.snapshot()["warmup_ms"]
        assert warmup_ms == 0.0 and result.batch_size == 1

    @pytest.mark.parametrize("backend", ["eager", "custom"])
    def test_only_the_engine_backend_is_accepted(self, model, backend):
        with pytest.raises(ValueError, match="engine only"):
            InferenceService(model, backend=backend)


class TestCaching:
    def test_repeat_chip_hits_cache(self, model):
        batch = chips(4)
        with InferenceService(model, BatchPolicy(max_batch=4)) as svc:
            first = [f.result(timeout=10) for f in svc.submit_many(batch)]
            again = [f.result(timeout=10) for f in svc.submit_many(batch)]
            assert svc.metrics.cache_hits.value == 4
        assert not any(r.cached for r in first)
        assert all(r.cached for r in again)
        for a, b in zip(first, again):
            assert a.confidence == b.confidence

    def test_cache_disabled(self, model):
        batch = chips(2)
        with InferenceService(model, cache_size=0) as svc:
            [f.result(timeout=10) for f in svc.submit_many(batch)]
            results = [f.result(timeout=10) for f in svc.submit_many(batch)]
            assert svc.metrics.cache_hits.value == 0
        assert not any(r.cached for r in results)


class TestTimeout:
    def test_request_timeout_expires_queued_request(self, model):
        """A deadline shorter than the batch ahead of it fails the future
        with RequestTimeoutError instead of serving stale work."""
        with InferenceService(stalled(model, 0.3), BatchPolicy(max_batch=1)) as svc:
            # occupy the model thread, then queue a request that expires
            # while it waits behind the slow batch
            blocker = svc.submit(chips(1, seed=1)[0])
            doomed = svc.submit(chips(1, seed=2)[0], timeout_s=0.05)
            with pytest.raises(RequestTimeoutError):
                doomed.result(timeout=10)
            blocker.result(timeout=10)  # unaffected by its neighbor
            assert svc.metrics.timeouts.value == 1

    def test_no_timeout_without_deadline(self, model):
        with InferenceService(stalled(model, 0.1), BatchPolicy(max_batch=1)) as svc:
            futures = svc.submit_many(chips(3))
            for f in futures:
                f.result(timeout=10)
            assert svc.metrics.timeouts.value == 0

    @pytest.mark.parametrize("timeout_s", [float("nan"), True, 0, -1, "1"])
    def test_a_deadline_that_is_not_positive_is_refused(self, model,
                                                        timeout_s):
        """``timeout_s`` is checked before anything is counted: a NaN is
        not "no deadline", a bool is not 1 s, and a zero or negative
        deadline is not a request queued dead."""
        with InferenceService(model) as svc:
            with pytest.raises(ValueError, match="timeout_s"):
                svc.submit(chips(1)[0], timeout_s=timeout_s)
            snap = svc.metrics.snapshot()
        assert snap["submitted"] == 0 and snap["timeouts"] == 0
        assert snap["cache_misses"] == 0


class TestBackpressure:
    def test_full_queue_rejects_submit(self, model):
        """With the model thread pinned and the queue bounded, excess
        submissions fail fast with QueueFullError."""
        svc = InferenceService(stalled(model, 0.5), BatchPolicy(max_batch=1),
                               max_queue=2)
        try:
            accepted = []
            with pytest.raises(QueueFullError):
                for i in range(16):
                    accepted.append(svc.submit(chips(1, seed=i)[0]))
            assert svc.metrics.rejected.value >= 1
            # accepted work is unaffected by the rejections
            for f in accepted:
                f.result(timeout=30)
        finally:
            svc.shutdown()

    def test_queue_capacity_validated(self, model):
        with pytest.raises(ValueError):
            InferenceService(model, max_queue=0)


class TestShutdown:
    def test_shutdown_drains_inflight_work(self, model):
        """Default shutdown completes every already-submitted request."""
        svc = InferenceService(stalled(model, 0.05), BatchPolicy(max_batch=4))
        futures = svc.submit_many(chips(10))
        svc.shutdown()  # drain=True
        results = [f.result(timeout=0) for f in futures]  # already resolved
        assert len(results) == 10
        assert svc.metrics.completed.value == 10

    def test_submit_after_shutdown_rejected(self, model):
        svc = InferenceService(model)
        svc.shutdown()
        with pytest.raises(ServiceStoppedError):
            svc.submit(chips(1)[0])

    def test_abort_fails_undispatched_requests(self, model):
        """drain=False fails queued work instead of running it."""
        svc = InferenceService(stalled(model, 0.3), BatchPolicy(max_batch=1))
        futures = svc.submit_many(chips(6))
        time.sleep(0.05)  # let the first batch reach the model thread
        svc.shutdown(drain=False)
        outcomes = []
        for f in futures:
            try:
                f.result(timeout=10)
                outcomes.append("ok")
            except ServiceStoppedError:
                outcomes.append("stopped")
        assert "ok" in outcomes and "stopped" in outcomes

    def test_shutdown_idempotent(self, model):
        svc = InferenceService(model)
        svc.shutdown()
        svc.shutdown()

    def test_concurrent_submitters(self, model):
        """Many client threads sharing one service all get answers."""
        results = []
        errors = []
        with InferenceService(model, BatchPolicy(max_batch=8)) as svc:
            def client(seed):
                try:
                    futs = svc.submit_many(chips(4, seed=seed))
                    results.extend(f.result(timeout=30) for f in futs)
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads = [threading.Thread(target=client, args=(s,))
                       for s in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors
        assert len(results) == 24


class TestAdmission:
    def test_a_non_finite_chip_is_refused_at_submit(self, model):
        chip = chips(1)[0]
        chip[0, 0, 0] = np.nan
        with InferenceService(model) as svc:
            with pytest.raises(InvalidInputError, match="validation"):
                svc.submit(chip)
            assert svc.metrics.invalid_inputs.value == 1
        # unchecked, the chip reaches the engine and its answer fails
        # the guard's check
        with InferenceService(model, validate=False) as svc:
            with pytest.raises(EngineError, match="non_finite"):
                svc.submit(chip).result(timeout=30)
            assert svc.metrics.invalid_inputs.value == 0

    def test_validate_is_a_bool(self, model):
        from repro.robust import SanitizePolicy

        with pytest.raises(TypeError, match="validate"):
            InferenceService(model, validate=SanitizePolicy.for_serving())


class TestStartMethod:
    def test_scan_from_threaded_service_prefers_spawn(self, model):
        # regression: the service's model thread makes fork unsafe, so a
        # scan issued while the service runs must pick spawn
        from repro.scanpar import default_start_method

        with InferenceService(model, BatchPolicy(max_batch=8)):
            assert default_start_method() == "spawn"


class TestServiceResilience:
    """The service answers or fails loudly: an engine error is retried
    while :func:`repro.retry.retryable` allows, then fails its batch's
    futures with the engine's own exception, and every batch runs on
    the engine, so none is refused for the batches that failed before
    it.  The double (``tests.faults.FaultyEngine``) fails the compiled
    call for a scripted number of batches."""

    def policy(self):
        return BatchPolicy(max_batch=4)

    def test_transient_batch_failure_is_retried(self, model):
        faulty = FaultyEngine(model, failures=1)
        with InferenceService(faulty, self.policy(),
                              max_batch_retries=2) as service:
            result = service.submit(chips(1)[0]).result(timeout=5)
            assert 0.0 <= result.confidence <= 1.0
            snap = service.metrics.snapshot()
        assert snap["worker_failures"] == 1
        assert snap["worker_retries"] == 1
        assert snap["fallback_by_reason"] == {"engine_error": 1}

    def test_exhausted_retries_fail_the_batch_futures(self, model):
        faulty = FaultyEngine(model, failures=10**6)
        with InferenceService(faulty, self.policy(),
                              max_batch_retries=1) as service:
            future = service.submit(chips(1)[0])
            with pytest.raises(InjectedFault):
                future.result(timeout=5)
            snap = service.metrics.snapshot()
        assert snap["worker_failures"] == 2  # initial + retry
        assert snap["worker_retries"] == 1

    def test_an_outage_answers_cached_chips_and_fails_the_rest(self, model):
        """During an outage a cached chip is answered from the cache and
        every uncached one fails with the engine's own error, however
        many batches failed before it."""
        batch = chips(8)
        warm = batch[0]
        faulty = FaultyEngine(model)
        with InferenceService(faulty, self.policy(),
                              max_batch_retries=0) as service:
            service.submit(warm).result(timeout=5)  # cache the warm chip

            faulty.failures = 10**6  # outage begins
            for chip in batch[1:]:
                with pytest.raises(InjectedFault):
                    service.submit(chip).result(timeout=5)
            hit = service.submit(warm).result(timeout=5)
            snap = service.metrics.snapshot()
        assert hit.cached and hit.batch_size == 0
        assert snap["worker_failures"] == 7
        assert snap["fallback_by_reason"] == {"engine_error": 7}
        assert snap["cache_hits"] == 1 and snap["completed"] == 2

    def test_a_run_of_non_finite_batches_leaves_the_next_chip_answered(
            self, model):
        """No second runtime answers for a faulty engine: a non-finite
        answer fails its batch at once (``EngineError`` is permanent),
        and a run of such batches refuses nothing after it: the next
        clean chip is the engine's answer."""
        batch = chips(8)
        faulty = FaultyEngine(model, kind="nan", failures=6)
        with InferenceService(faulty, self.policy(), max_batch_retries=3,
                              cache_size=0) as service:
            guard = service.engine
            for chip in batch[:6]:
                with pytest.raises(EngineError, match="non_finite"):
                    service.submit(chip).result(timeout=5)
            results = [service.submit(chip).result(timeout=5)
                       for chip in batch[6:]]
            snap = service.metrics.snapshot()
        assert guard.fallback_by_reason == {"non_finite": 6}
        assert snap["fallback_by_reason"] == {"non_finite": 6}
        assert snap["worker_failures"] == 6
        assert snap["worker_retries"] == 0
        conf, _, _ = GuardedEngine(model).predict_batch(batch[6:])
        assert [r.confidence for r in results] == [float(c) for c in conf]

    def test_the_batch_after_an_outage_is_answered(self, model):
        """Recovery is the next batch: no timer and no probe stand
        between the engine healing and a chip being answered."""
        faulty = FaultyEngine(model, failures=6)  # six failures, then healthy
        with InferenceService(faulty, self.policy(),
                              max_batch_retries=0) as service:
            batch = chips(7)
            for chip in batch[:6]:
                with pytest.raises(InjectedFault):
                    service.submit(chip).result(timeout=5)
            result = service.submit(batch[6]).result(timeout=5)
            snap = service.metrics.snapshot()
        assert not result.cached and result.batch_size == 1
        assert snap["worker_failures"] == 6 and snap["completed"] == 1

    def test_snapshot_has_resilience_fields(self, model):
        with InferenceService(model, self.policy()) as service:
            service.submit(chips(1)[0]).result(timeout=5)
            snap = service.metrics.snapshot()
        assert snap["worker_failures"] == 0 and snap["worker_retries"] == 0
        removed = {"degraded_served", "degraded_rejected", "breaker_state",
                   "breaker_transitions"}
        assert not removed & set(snap)
