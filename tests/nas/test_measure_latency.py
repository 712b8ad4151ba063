"""``nas.measure_latency_ms``: a measured wall-clock number per sampled
architecture, on either backend."""

import math

import pytest

from repro.engine import CompiledModel
from repro.nas import measure_latency_ms

@pytest.mark.parametrize("backend", ["eager", "engine"])
def test_latency_is_finite_and_positive(small_arch, backend):
    ms = measure_latency_ms(small_arch, input_size=32, batch=2, repeats=3,
                            backend=backend)
    assert math.isfinite(ms) and ms > 0.0


def test_bad_arguments_raise(small_arch):
    with pytest.raises(ValueError, match="repeats"):
        measure_latency_ms(small_arch, input_size=32, repeats=0)
    with pytest.raises(ValueError, match="unknown backend"):
        measure_latency_ms(small_arch, input_size=32, backend="gpu")


def test_engine_programs_are_bound_before_the_first_timed_pass(small_arch,
                                                               monkeypatch):
    """With ``warmup=0`` the first ``predict`` is a timed pass: it must
    find the trunk and the head that runs this batch (bound at one 4-row
    block) already bound."""
    bound_at_predict = []
    real_predict = CompiledModel.predict

    def recording_predict(self, images, batch_size=20):
        bound_at_predict.append((set(self._trunks), set(self._heads)))
        return real_predict(self, images, batch_size)

    monkeypatch.setattr(CompiledModel, "predict", recording_predict)
    measure_latency_ms(small_arch, input_size=32, batch=3, repeats=2, warmup=0,
                       backend="engine")
    assert len(bound_at_predict) == 2
    assert bound_at_predict[0] == ({(4, 32, 32)}, {(4, 4, 32, 32)})
