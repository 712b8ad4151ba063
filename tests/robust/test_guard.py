"""The guarded engine answers or fails loudly: output checks, the fault
tally, and serve wiring."""

import numpy as np
import pytest

from repro.detect.predict import predict
from repro.engine import compiled_for
from repro.retry import retryable
from repro.robust import (
    FAULT_ENGINE_ERROR,
    FAULT_NON_FINITE,
    FAULT_SHAPE,
    EngineError,
    GuardedEngine,
)
from repro.serve import BatchPolicy, InferenceService
from tests.faults import FaultyEngine, InjectedFault


@pytest.fixture(scope="module")
def model(small_detector):
    return small_detector


def chips(n=4, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((n, 4, 24, 24)).astype(np.float32)


class TestGuardedEngine:
    def test_healthy_engine_matches_eager(self, model):
        guard = GuardedEngine(model)
        stack = chips()
        conf, boxes, backend = guard.predict_batch(stack)
        e_conf, e_boxes = predict(model, stack, batch_size=len(stack))
        assert backend == "engine"
        np.testing.assert_allclose(conf, e_conf, atol=1e-4)
        np.testing.assert_allclose(boxes, e_boxes, atol=1e-4)
        assert guard.fallback_by_reason == {}

    @pytest.mark.parametrize("kind,reason", [
        ("nan", FAULT_NON_FINITE),
        ("shape", FAULT_SHAPE),
        ("raise", FAULT_ENGINE_ERROR),
    ])
    def test_violation_raises_and_is_tallied(self, model, kind, reason):
        """A bad answer raises a permanent ``EngineError``; the engine's
        own exception propagates unchanged.  Either is tallied, and the
        next batch runs on the engine again."""
        faulty = FaultyEngine(model, failures=1, kind=kind)
        guard = GuardedEngine(faulty)
        stack = chips()
        if kind == "raise":
            with pytest.raises(InjectedFault, match="injected") as raised:
                guard.predict_batch(stack)
            assert type(raised.value) is InjectedFault
            assert retryable(raised.value)
        else:
            with pytest.raises(EngineError) as raised:
                guard.predict_batch(stack)
            assert raised.value.reason == reason
            assert not retryable(raised.value)
        assert guard.fallback_by_reason == {reason: 1}
        conf, boxes, backend = guard.predict_batch(stack)
        assert backend == "engine" and faulty.calls == 2
        want = compiled_for(model).predict(stack, batch_size=len(stack))
        assert conf.tobytes() == want[0].tobytes()
        assert boxes.tobytes() == want[1].tobytes()

    def test_the_double_refuses_an_unknown_fault_kind(self, model):
        with pytest.raises(ValueError, match="kind"):
            FaultyEngine(model, failures=1, kind="slow")

    @pytest.mark.parametrize("kind,reason", [
        ("nan", FAULT_NON_FINITE), ("raise", FAULT_ENGINE_ERROR)])
    def test_an_open_batch_fault_is_loud_too(self, model, kind, reason):
        guard = GuardedEngine(FaultyEngine(model, failures=1, kind=kind))
        with pytest.raises(EngineError if kind == "nan" else InjectedFault):
            guard.predict_stream(iter(chips()), 8)
        assert guard.fallback_by_reason == {reason: 1}

    def test_a_non_finite_error_names_its_rows_and_keeps_the_answer(
            self, model):
        """A chip whose finite pixels overflow float32 gives a non-finite
        row of its own; the error names that row, and the answer it
        keeps holds every other row's engine bytes."""
        stack = chips()
        stack[1] *= 1e38
        with pytest.raises(EngineError) as raised:
            GuardedEngine(model).predict_batch(stack)
        fault = raised.value
        assert fault.reason == FAULT_NON_FINITE and fault.rows == (1,)
        conf, boxes = fault.answer
        clean = stack[[0, 2, 3]]
        want = compiled_for(model).predict(clean, batch_size=len(clean))
        assert conf[[0, 2, 3]].tobytes() == want[0].tobytes()
        assert boxes[[0, 2, 3]].tobytes() == want[1].tobytes()

    def test_an_open_batch_answer_covers_the_chips_pulled(self, model):
        """The shape check counts the chips the engine pulled, not the
        limit: an answer one row short of them is a fault."""
        guard = GuardedEngine(FaultyEngine(model, failures=1, kind="shape"))
        with pytest.raises(EngineError, match=FAULT_SHAPE):
            guard.predict_stream(iter(chips(3)), 8)
        conf, boxes = GuardedEngine(model).predict_stream(iter(chips(3)), 8)
        assert conf.shape == (3,) and boxes.shape == (3, 4)

    def test_predict_loop_isolates_micro_batches(self, model):
        """Only the poisoned micro-batch raises; the rest are engine
        answers."""
        guard = GuardedEngine(FaultyEngine(model, failures=1, kind="nan"))
        stack = chips(n=6)
        answered = {}
        for s in range(0, len(stack), 2):
            try:
                answered[s] = guard.predict_batch(stack[s:s + 2],
                                                  batch_size=2)
            except EngineError:
                pass
        assert sorted(answered) == [2, 4]
        e_conf, e_boxes = predict(model, stack, batch_size=2)
        for s, (conf, boxes, _) in answered.items():
            np.testing.assert_allclose(conf, e_conf[s:s + 2], atol=1e-4)
            np.testing.assert_allclose(boxes, e_boxes[s:s + 2], atol=1e-4)
        assert guard.fallback_by_reason == {FAULT_NON_FINITE: 1}


class TestServeIntegration:
    def test_injected_faulty_engine_surfaces_in_metrics(self, model):
        """A non-finite answer fails its batch once (no retry can change
        it), tallied by reason; the later requests are engine answers."""
        faulty = FaultyEngine(model, failures=1, kind="nan")
        with InferenceService(faulty, BatchPolicy(max_batch=1),
                              cache_size=0, max_batch_retries=3) as svc:
            futures = [svc.submit(c) for c in chips(n=3)]
            with pytest.raises(EngineError, match=FAULT_NON_FINITE):
                futures[0].result(timeout=10)
            results = [f.result(timeout=10) for f in futures[1:]]
        assert all(r.batch_size == 1 for r in results)
        snap = svc.metrics.snapshot()
        assert snap["fallback_by_reason"] == {FAULT_NON_FINITE: 1}
        assert snap["worker_failures"] == 1 and snap["worker_retries"] == 0
        assert snap["completed"] == 2
        assert svc.engine.fallback_by_reason == {FAULT_NON_FINITE: 1}

    def test_engine_backend_defaults_to_guarded(self, model):
        with InferenceService(model, BatchPolicy(max_batch=1),
                              cache_size=0) as svc:
            assert isinstance(svc.engine, GuardedEngine)
            result = svc.submit(chips(n=1)[0]).result(timeout=10)
        assert 0.0 <= result.confidence <= 1.0
        assert svc.metrics.snapshot()["fallback_by_reason"] == {}
