"""Circuit breaker: state machine, degraded cache-only serving, recovery."""

import numpy as np
import pytest

from repro.robust import EngineError
from repro.serve import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BatchPolicy,
    BreakerPolicy,
    CircuitBreaker,
    DegradedServiceError,
    InferenceService,
)
from tests.faults import FaultyEngine, InjectedFault

@pytest.fixture(scope="module")
def model(small_detector):
    return small_detector


def chips(n, size=24, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 4, size, size)).astype(np.float32)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestCircuitBreaker:
    def make(self, **kwargs):
        clock = FakeClock()
        transitions = []
        breaker = CircuitBreaker(
            BreakerPolicy(**kwargs),
            on_transition=lambda old, new: transitions.append((old, new)),
            clock=clock,
        )
        return breaker, clock, transitions

    def test_trips_after_consecutive_failures(self):
        breaker, _, transitions = self.make(failure_threshold=3)
        assert breaker.state == CLOSED
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert transitions == [(CLOSED, OPEN)]

    def test_success_resets_the_failure_streak(self):
        breaker, _, _ = self.make(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # streak broken
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_half_open_probe_closes_on_success(self):
        breaker, clock, transitions = self.make(
            failure_threshold=1, reset_timeout_s=10.0)
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(9.0)
        assert not breaker.allow()
        clock.advance(1.5)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()       # the probe
        assert not breaker.allow()   # only one probe admitted
        breaker.record_success()
        assert breaker.state == CLOSED
        assert transitions == [(CLOSED, OPEN), (OPEN, HALF_OPEN),
                               (HALF_OPEN, CLOSED)]

    def test_half_open_probe_failure_reopens(self):
        breaker, clock, _ = self.make(failure_threshold=1, reset_timeout_s=5.0)
        breaker.record_failure()
        clock.advance(6.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()  # timer restarted
        clock.advance(6.0)
        assert breaker.state == HALF_OPEN

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerPolicy(reset_timeout_s=-1.0)
        with pytest.raises(ValueError):
            BreakerPolicy(half_open_probes=0)


class TestServiceResilience:
    """The service's own retries and breaker answer engine faults: an
    engine error is retried while :func:`repro.retry.retryable` allows,
    and consecutive failed batches trip the breaker.  The double
    (``tests.faults.FaultyEngine``) fails the compiled call for a
    scripted number of batches."""

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
        assert snap["breaker_state"] == "closed"

    def test_exhausted_retries_fail_the_batch_futures(self, model):
        faulty = FaultyEngine(model, failures=10**6)
        with InferenceService(faulty, self.policy(),
                              max_batch_retries=1,
                              breaker=BreakerPolicy(failure_threshold=50)
                              ) as service:
            future = service.submit(chips(1)[0])
            with pytest.raises(InjectedFault):
                future.result(timeout=5)
            snap = service.metrics.snapshot()
        assert snap["worker_failures"] >= 2  # initial + retry
        assert snap["worker_retries"] == 1

    def test_breaker_trips_and_serves_cache_only(self, model):
        batch = chips(6)
        warm, cold = batch[0], batch[5]
        faulty = FaultyEngine(model)
        breaker = BreakerPolicy(failure_threshold=2, reset_timeout_s=60.0)
        with InferenceService(faulty, self.policy(),
                              max_batch_retries=0, breaker=breaker) as service:
            service.submit(warm).result(timeout=5)  # cache the warm chip

            faulty.failures = 10**6  # outage begins
            for chip in batch[1:3]:
                with pytest.raises(InjectedFault):
                    service.submit(chip).result(timeout=5)
            snap = service.metrics.snapshot()
            assert snap["breaker_state"] == "open"

            # degraded mode: cached chip still served, uncached fails fast
            hit = service.submit(warm).result(timeout=5)
            assert hit.cached
            with pytest.raises(DegradedServiceError):
                service.submit(cold)
            snap = service.metrics.snapshot()
        assert snap["degraded_served"] == 1
        assert snap["degraded_rejected"] == 1
        assert snap["breaker_transitions"].get("closed->open") == 1

    def test_an_engine_fault_alone_trips_the_service_breaker(self, model):
        """No second runtime answers for a faulty engine: a non-finite
        answer fails its batch at once (``EngineError`` is permanent),
        two in a row trip the breaker, and the service then serves
        cached chips only."""
        batch = chips(5)
        faulty = FaultyEngine(model, kind="nan")
        breaker = BreakerPolicy(failure_threshold=2, reset_timeout_s=60.0)
        with InferenceService(faulty, self.policy(), max_batch_retries=3,
                              breaker=breaker) as service:
            guard = service.engine
            service.submit(batch[0]).result(timeout=5)  # healthy, cached
            faulty.failures = 10**6
            for chip in batch[1:3]:
                with pytest.raises(EngineError, match="non_finite"):
                    service.submit(chip).result(timeout=5)
            snap = service.metrics.snapshot()
            assert guard.fallback_by_reason == {"non_finite": 2}
            assert snap["fallback_by_reason"] == {"non_finite": 2}
            assert snap["worker_failures"] == 2
            assert snap["worker_retries"] == 0
            assert service.metrics.breaker_state == "open"
            assert service.submit(batch[0]).result(timeout=5).cached
            with pytest.raises(DegradedServiceError):
                service.submit(batch[3])

    def test_breaker_recovers_via_half_open_probe(self, model):
        faulty = FaultyEngine(model, failures=2)  # two failures, then healthy
        breaker = BreakerPolicy(failure_threshold=2, reset_timeout_s=0.05)
        with InferenceService(faulty, self.policy(),
                              max_batch_retries=0, breaker=breaker) as service:
            batch = chips(4)
            for chip in batch[:2]:
                with pytest.raises(InjectedFault):
                    service.submit(chip).result(timeout=5)
            assert service.metrics.breaker_state == "open"

            import time
            time.sleep(0.08)  # past the reset timeout -> half-open probe
            result = service.submit(batch[2]).result(timeout=5)
            assert 0.0 <= result.confidence <= 1.0
            snap = service.metrics.snapshot()
        assert snap["breaker_state"] == "closed"
        assert snap["breaker_transitions"].get("open->half_open") == 1
        assert snap["breaker_transitions"].get("half_open->closed") == 1

    def test_snapshot_has_resilience_fields(self, model):
        with InferenceService(model, self.policy()) as service:
            service.submit(chips(1)[0]).result(timeout=5)
            snap = service.metrics.snapshot()
        for key in ("worker_failures", "worker_retries", "degraded_served",
                    "degraded_rejected", "breaker_state", "breaker_transitions"):
            assert key in snap
        assert snap["worker_failures"] == 0
        assert snap["breaker_state"] == "closed"
