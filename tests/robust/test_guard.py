"""Guarded engine→eager fallback: output checks, breaker, serve wiring."""

from itertools import islice

import numpy as np
import pytest

from repro.arch import ConvSpec, PoolSpec, SPPNetConfig
from repro.detect import SPPNetDetector
from repro.detect.predict import predict
from repro.engine import compiled_for
from repro.robust import (
    FALLBACK_BREAKER_OPEN,
    FALLBACK_ENGINE_ERROR,
    FALLBACK_NON_FINITE,
    FALLBACK_SHAPE,
    GuardedEngine,
)
from repro.serve import BatchPolicy, InferenceService
from repro.serve.breaker import BreakerPolicy


@pytest.fixture(scope="module")
def model():
    arch = SPPNetConfig(
        convs=(ConvSpec(8, 3, 1),), pools=(PoolSpec(2, 2),),
        spp_levels=(2, 1), fc_sizes=(32,), name="guard-test",
    )
    m = SPPNetDetector(arch, seed=0)
    m.eval()
    return m


def chips(n=4, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((n, 4, 24, 24)).astype(np.float32)


class FaultyCompiled:
    """Compiled stand-in that misbehaves for the first `fail_first` calls."""

    def __init__(self, model, fail_first=1, mode="nan"):
        self.model = model
        self.fail_first = fail_first
        self.mode = mode
        self.calls = 0

    def predict(self, stack, batch_size=20):
        self.calls += 1
        n = len(stack)
        if self.calls <= self.fail_first:
            if self.mode == "nan":
                return np.full(n, np.nan), np.full((n, 4), np.nan)
            if self.mode == "shape":
                return np.zeros(n + 1), np.zeros((n + 1, 4))
            raise RuntimeError("injected engine crash")
        return predict(self.model, stack, batch_size=batch_size)

    def predict_stream(self, chips, limit):
        return self.predict(np.stack(list(islice(chips, limit))), limit)


class TestGuardedEngine:
    def test_healthy_engine_matches_eager(self, model):
        guard = GuardedEngine(model, compiled=compiled_for(model))
        stack = chips()
        conf, boxes, backend = guard.predict_batch(stack)
        e_conf, e_boxes = predict(model, stack, batch_size=len(stack))
        assert backend == "engine"
        np.testing.assert_allclose(conf, e_conf, atol=1e-4)
        np.testing.assert_allclose(boxes, e_boxes, atol=1e-4)
        assert guard.fallback_by_reason == {}

    @pytest.mark.parametrize("mode,reason", [
        ("nan", FALLBACK_NON_FINITE),
        ("shape", FALLBACK_SHAPE),
        ("raise", FALLBACK_ENGINE_ERROR),
    ])
    def test_violation_falls_back_with_matching_answer(self, model, mode,
                                                       reason):
        guard = GuardedEngine(
            model, compiled=FaultyCompiled(model, fail_first=1, mode=mode))
        stack = chips()
        with pytest.warns(RuntimeWarning, match=reason):
            conf, boxes, backend = guard.predict_batch(stack)
        assert backend == "eager"
        assert guard.fallback_by_reason == {reason: 1}
        e_conf, e_boxes = predict(model, stack, batch_size=len(stack))
        np.testing.assert_array_equal(conf, e_conf)
        np.testing.assert_array_equal(boxes, e_boxes)
        # engine recovered: the next batch is served by the engine again
        _, _, backend2 = guard.predict_batch(stack)
        assert backend2 == "engine"

    def test_repeated_faults_trip_breaker_toward_eager_only(self, model):
        faulty = FaultyCompiled(model, fail_first=100, mode="nan")
        guard = GuardedEngine(
            model, compiled=faulty,
            breaker=BreakerPolicy(failure_threshold=3, reset_timeout_s=60.0))
        stack = chips()
        with pytest.warns(RuntimeWarning) as warned:
            for _ in range(3):
                guard.predict_batch(stack)
            assert not guard.engine_available
            engine_calls = faulty.calls
            _, _, backend = guard.predict_batch(stack)
        assert backend == "eager"
        assert faulty.calls == engine_calls  # no doomed engine attempt
        tally = guard.fallback_by_reason
        assert tally[FALLBACK_NON_FINITE] == 3
        assert tally[FALLBACK_BREAKER_OPEN] == 1
        # loud once per reason, counted every time
        messages = [str(w.message) for w in warned]
        assert len(messages) == 2
        assert FALLBACK_NON_FINITE in messages[0]
        assert FALLBACK_BREAKER_OPEN in messages[1]

    def test_fallback_listeners_fire(self, model):
        seen = []
        guard = GuardedEngine(
            model, compiled=FaultyCompiled(model, fail_first=1, mode="nan"),
            on_fallback=seen.append)
        guard.add_fallback_listener(seen.append)
        with pytest.warns(RuntimeWarning, match=FALLBACK_NON_FINITE):
            guard.predict_batch(chips())
        assert seen == [FALLBACK_NON_FINITE, FALLBACK_NON_FINITE]

    def test_predict_loop_isolates_micro_batches(self, model):
        """Only the poisoned micro-batch falls back; the rest stay on
        the engine, and the concatenated output equals eager."""
        guard = GuardedEngine(
            model, compiled=FaultyCompiled(model, fail_first=1, mode="nan"))
        stack = chips(n=6)
        with pytest.warns(RuntimeWarning, match=FALLBACK_NON_FINITE):
            runs = [guard.predict_batch(stack[s:s + 2], batch_size=2)
                    for s in range(0, len(stack), 2)]
        conf = np.concatenate([run[0] for run in runs])
        boxes = np.concatenate([run[1] for run in runs])
        e_conf, e_boxes = predict(model, stack, batch_size=2)
        np.testing.assert_allclose(conf, e_conf, atol=1e-4)
        np.testing.assert_allclose(boxes, e_boxes, atol=1e-4)
        assert sum(guard.fallback_by_reason.values()) == 1


class TestServeIntegration:
    def test_injected_faulty_engine_surfaces_in_metrics(self, model):
        guard = GuardedEngine(
            model, compiled=FaultyCompiled(model, fail_first=1, mode="nan"))
        with InferenceService(model, BatchPolicy(max_batch=1),
                              cache_size=0, engine=guard) as svc:
            stack = chips(n=3)
            with pytest.warns(RuntimeWarning, match=FALLBACK_NON_FINITE):
                results = [svc.submit(c).result(timeout=10) for c in stack]
        backends = [r.backend for r in results]
        assert backends[0] == "eager" and backends[1:] == ["engine", "engine"]
        snap = svc.metrics.snapshot()
        assert snap["fallback_by_reason"] == {FALLBACK_NON_FINITE: 1}
        assert snap["completed_by_backend"] == {"eager": 1, "engine": 2}

    def test_engine_backend_defaults_to_guarded(self, model):
        with InferenceService(model, BatchPolicy(max_batch=1),
                              cache_size=0) as svc:
            assert isinstance(svc.engine, GuardedEngine)
            result = svc.submit(chips(n=1)[0]).result(timeout=10)
        assert result.backend == "engine"
        assert svc.metrics.snapshot()["fallback_by_reason"] == {}
