"""Inference service behavior: batching, caching, backpressure, timeouts,
shutdown semantics.

Uses a deliberately tiny SPP-Net so each micro-batch costs ~1 ms, and a
stalling engine double (``repro.faults.FaultyEngine``) where the tests
need the model thread to stay busy.
"""

import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.arch import ConvSpec, PoolSpec, SPPNetConfig
from repro.detect import SPPNetDetector
from repro.engine import compiled_for
from repro.faults import FaultyEngine
from repro.robust import EngineError, GuardedEngine
from repro.serve import (
    BatchPolicy,
    InferenceService,
    InvalidInputError,
    QueueFullError,
    RequestTimeoutError,
    ServiceStoppedError,
)

ARCH = SPPNetConfig(
    convs=(ConvSpec(8, 3, 1),), pools=(PoolSpec(2, 2),),
    spp_levels=(2, 1), fc_sizes=(32,), name="serve-test",
)


@pytest.fixture(scope="module")
def model():
    return SPPNetDetector(ARCH, seed=0)


def stalled(model, delay_s: float) -> GuardedEngine:
    """A guarded engine whose every batch takes ``delay_s`` longer."""
    return FaultyEngine(model, delay_s=delay_s).guarded()


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
        compiled = compiled_for(model)

        def broken(*args):
            raise RuntimeError("injected warm-up failure")

        guard = GuardedEngine(model, compiled=SimpleNamespace(
            predict_stream=compiled.predict_stream, warmup=broken))
        with pytest.warns(RuntimeWarning, match="injected warm-up failure"):
            with InferenceService(model, BatchPolicy(max_batch=4),
                                  engine=guard) as svc:
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
        with InferenceService(model, BatchPolicy(max_batch=1),
                              engine=stalled(model, 0.3)) as svc:
            # occupy the model thread, then queue a request that expires
            # while it waits behind the slow batch
            blocker = svc.submit(chips(1, seed=1)[0])
            doomed = svc.submit(chips(1, seed=2)[0], timeout_s=0.05)
            with pytest.raises(RequestTimeoutError):
                doomed.result(timeout=10)
            blocker.result(timeout=10)  # unaffected by its neighbor
            assert svc.metrics.timeouts.value == 1

    def test_no_timeout_without_deadline(self, model):
        with InferenceService(model, BatchPolicy(max_batch=1),
                              engine=stalled(model, 0.1)) as svc:
            futures = svc.submit_many(chips(3))
            for f in futures:
                f.result(timeout=10)
            assert svc.metrics.timeouts.value == 0


class TestBackpressure:
    def test_full_queue_rejects_submit(self, model):
        """With the model thread pinned and the queue bounded, excess
        submissions fail fast with QueueFullError."""
        svc = InferenceService(model, BatchPolicy(max_batch=1),
                               engine=stalled(model, 0.5), max_queue=2)
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
        svc = InferenceService(model, BatchPolicy(max_batch=4),
                               engine=stalled(model, 0.05))
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
        svc = InferenceService(model, BatchPolicy(max_batch=1),
                               engine=stalled(model, 0.3))
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
