"""Quantized execution: parity, calibration, and the accuracy gate."""

import numpy as np
import pytest

from repro.arch import ConvSpec, PoolSpec, SPPNetConfig
from repro.detect.predict import predict
from repro.detect.sppnet import SPPNetDetector
from repro.engine import (
    CompiledModel,
    QuantPolicy,
    compile as engine_compile,
    quantize_with_accuracy_gate,
)
from repro.engine.quant import (
    activation_scale,
    quantize_weight_per_channel,
    round_f16,
)


def small_config(kernel=3, spp_levels=(2, 1), fc_sizes=(32,)):
    return SPPNetConfig(
        convs=(ConvSpec(8, kernel, 1), ConvSpec(16, 3, 1)),
        pools=(PoolSpec(2, 2), PoolSpec(2, 2)),
        spp_levels=spp_levels, fc_sizes=fc_sizes, in_channels=4,
    )


def chips(n, shape=(4, 32, 32), seed=0):
    return np.random.default_rng(seed).standard_normal(
        (n,) + shape).astype(np.float32)


class TestPolicy:
    def test_coerce(self):
        assert QuantPolicy.coerce("int8").mode == "int8"
        p = QuantPolicy(mode="float16")
        assert QuantPolicy.coerce(p) is p

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            QuantPolicy(mode="int4")

    def test_rejects_bad_percentile(self):
        with pytest.raises(ValueError):
            QuantPolicy(percentile=10.0)


class TestPrimitives:
    def test_round_f16_is_half_precision(self):
        x = np.array([1.0 + 2.0 ** -12], dtype=np.float32)
        assert round_f16(x)[0] == 1.0  # rounded away: f16 has 10 bits

    def test_per_channel_weight_quant_roundtrip(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((18, 6)).astype(np.float32)
        w[:, 2] *= 100.0  # scale outlier channel must not hurt others
        q, scales = quantize_weight_per_channel(w)
        assert np.abs(q).max() <= 127.0
        assert np.all(q == np.rint(q))  # integer-valued float storage
        np.testing.assert_allclose(q * scales, w, atol=np.max(scales) / 2)

    def test_all_zero_channel_gets_unit_scale(self):
        w = np.zeros((4, 3), dtype=np.float32)
        q, scales = quantize_weight_per_channel(w)
        assert np.all(scales == 1.0)
        assert np.all(q == 0.0)

    def test_activation_scale_percentile(self):
        x = np.concatenate([np.full(999, 1.0), [1000.0]]).astype(np.float32)
        clipped = activation_scale(x, 99.0)
        outlier = activation_scale(x, 100.0)
        assert clipped == pytest.approx(1.0 / 127.0, rel=1e-3)
        assert outlier == pytest.approx(1000.0 / 127.0, rel=1e-3)


class TestQuantizedParity:
    """Reduced-precision programs must track float32 closely on every
    architecture axis (the NAS search space must be safely quantizable)."""

    AXES = {
        "kernel5": dict(kernel=5),
        "spp_deep": dict(spp_levels=(4, 2, 1)),
        "fc_wide": dict(fc_sizes=(64, 32)),
    }

    @pytest.mark.parametrize("axis", sorted(AXES))
    @pytest.mark.parametrize("mode,atol", [("float16", 2e-3), ("int8", 0.08)])
    def test_outputs_track_float32(self, axis, mode, atol):
        model = SPPNetDetector(small_config(**self.AXES[axis]), seed=1)
        model.eval()
        x = chips(4)
        ref_conf, ref_boxes = predict(model, x, backend="engine")
        q = engine_compile(model, quant=mode)
        conf, boxes = q.predict(x, batch_size=4)
        np.testing.assert_allclose(conf, ref_conf, atol=atol)
        np.testing.assert_allclose(boxes, ref_boxes, atol=atol)

    def test_calibration_tightens_or_matches_dynamic(self):
        model = SPPNetDetector(small_config(), seed=2)
        model.eval()
        x = chips(6, seed=3)
        ref_conf, _ = predict(model, x, backend="engine")

        q = engine_compile(model, quant="int8")
        dyn_conf, _ = q.predict(x, batch_size=6)
        stats = q.calibrate(chips(20, seed=4))
        cal_conf, _ = q.predict(x, batch_size=6)

        assert stats  # one static scale per quantized step
        assert all(v > 0.0 for v in stats.values())
        dyn_err = float(np.abs(dyn_conf - ref_conf).max())
        cal_err = float(np.abs(cal_conf - ref_conf).max())
        assert cal_err < max(2.0 * dyn_err, 0.08)

    def test_int8_trunk_scales_are_per_sample(self):
        """The trunk sees one sample per call: a tile's uncalibrated
        result cannot depend on its batch-mates, and calibration
        commits the largest per-sample percentile."""
        from repro.tensor import Sequential

        model = SPPNetDetector(small_config(), seed=2)
        model.eval()
        x = chips(6, seed=5)
        x[4] *= 6.0  # an outlier tile would coarsen a batch-wide scale
        features = engine_compile(Sequential(model.trunk, model.spp),
                                  (4, 32, 32), quant="int8")
        rows = features(x)
        for i in range(len(x)):
            assert rows[i:i + 1].tobytes() == features(x[i:i + 1]).tobytes()

        q = engine_compile(model, quant="int8")
        stats = q.calibrate(x, batch_size=4)
        first_conv = next(s.name for s in q.steps if s.kind == "conv_pool")
        assert stats[first_conv] == max(
            activation_scale(tile, q.quant.percentile) for tile in x)
        assert stats[first_conv] > activation_scale(x, q.quant.percentile)

    def test_calibrate_noop_for_float32(self):
        model = SPPNetDetector(small_config(), seed=2)
        model.eval()
        compiled = engine_compile(model)
        assert compiled.calibrate(chips(4)) == {}

    def test_int8_pins_im2col(self):
        model = SPPNetDetector(small_config(), seed=2)
        model.eval()
        q = engine_compile(model, quant="int8")
        q.predict(chips(1))
        assert set(q.kernel_choices(batch=1).values()) == {"im2col"}


class TestAccuracyGate:
    """Mode selection is subordinate to the paper's a(n) > A constraint."""

    def setup_method(self):
        self.model = SPPNetDetector(small_config(), seed=5)
        self.model.eval()
        self.x = chips(8, seed=6)
        ref_conf, _ = predict(self.model, self.x, backend="engine")
        self.ref_labels = ref_conf > 0.5

        def agreement(compiled):
            conf, _ = compiled.predict(self.x, batch_size=8)
            return float(np.mean((conf > 0.5) == self.ref_labels))

        self.agreement = agreement

    def test_low_floor_selects_most_aggressive_mode(self):
        compiled, report = quantize_with_accuracy_gate(
            self.model, self.agreement, floor=0.5,
            input_shape=(4, 32, 32), calibration=chips(16, seed=7))
        assert report["selected"] == "int8"
        assert compiled.quant.mode == "int8"
        assert report["candidates"][0]["calibrated"] is True
        assert report["candidates"][0]["accuracy"] > 0.5

    def test_impossible_floor_falls_back_to_float32(self):
        compiled, report = quantize_with_accuracy_gate(
            self.model, self.agreement, floor=1.5, input_shape=(4, 32, 32))
        assert report["selected"] == "float32"
        assert compiled.quant.mode == "float32"
        assert len(report["candidates"]) == 2  # both modes tried and failed
        assert all(not c["passed"] for c in report["candidates"])

    def test_mode_order_respected(self):
        # With float16 listed first and a reachable floor, int8 is never
        # compiled: the gate stops at the first passing candidate.
        compiled, report = quantize_with_accuracy_gate(
            self.model, self.agreement, floor=0.5,
            modes=("float16",), input_shape=(4, 32, 32))
        assert report["selected"] == "float16"
        assert [c["mode"] for c in report["candidates"]] == ["float16"]


class TestCompiledForCache:
    def test_cache_keys_on_quant_mode(self):
        from repro.engine import compiled_for

        model = SPPNetDetector(small_config(), seed=5)
        model.eval()
        f32 = compiled_for(model)
        q = compiled_for(model, quant="float16")
        assert q is not f32
        assert q.quant.mode == "float16"
        assert compiled_for(model, quant="float16") is q

    def test_cache_keys_on_the_whole_policy(self):
        from repro.engine import compiled_for

        model = SPPNetDetector(small_config(), seed=5)
        model.eval()
        default = compiled_for(model, quant="int8")
        assert default.quant.percentile == 99.9
        # same mode, another calibration percentile: not the cached model
        clipped = compiled_for(model, quant=QuantPolicy("int8",
                                                        percentile=99.0))
        assert clipped is not default
        assert clipped.quant.percentile == 99.0
