"""Compiled engine vs eager autograd: output equivalence across the
NAS search axes (first-conv kernel size, SPP pyramid levels, FC widths)
plus batching, variable input sizes, and BatchNorm folding."""

import warnings

import numpy as np
import pytest

from repro.arch import ConvSpec, PoolSpec, SPPNetConfig
from repro.detect.predict import predict
from repro.detect.sppnet import SPPNetDetector
from repro.engine import CompiledModel, compile as engine_compile, compiled_for
from repro.engine.kernels import sigmoid_into
from repro.tensor import Linear, Tensor, no_grad

ATOL = 1e-5


def small_config(kernel: int = 3, spp_levels=(2, 1), fc_sizes=(32,),
                 use_batchnorm: bool = False) -> SPPNetConfig:
    """Two-conv trunk small enough that the whole sweep stays fast."""
    return SPPNetConfig(
        convs=(ConvSpec(8, kernel, 1), ConvSpec(16, 3, 1)),
        pools=(PoolSpec(2, 2), PoolSpec(2, 2)),
        spp_levels=tuple(spp_levels),
        fc_sizes=tuple(fc_sizes),
        in_channels=4,
        use_batchnorm=use_batchnorm,
    )


def chips(n: int, size: int = 32, channels: int = 4, seed: int = 0,
          width: int | None = None) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(
        (n, channels, size, width if width is not None else size)
    ).astype(np.float32)


def eager_outputs(model: SPPNetDetector,
                  images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    model.eval()
    with no_grad():
        logits, boxes = model(Tensor(images))
    return logits.data, boxes.data


def assert_engine_matches(model: SPPNetDetector, images: np.ndarray,
                          dtype=np.float32, atol: float = ATOL) -> None:
    logits, boxes = eager_outputs(model, images)
    compiled = CompiledModel(
        model, (model.config.in_channels,) + images.shape[2:], dtype=dtype
    )
    eng_logits, eng_boxes = compiled(images)
    np.testing.assert_allclose(eng_logits, logits, atol=atol, rtol=1e-4)
    np.testing.assert_allclose(eng_boxes, boxes, atol=atol, rtol=1e-4)


class TestSearchAxes:
    @pytest.mark.parametrize("kernel", [1, 3, 5, 7])
    def test_first_conv_kernel(self, kernel):
        model = SPPNetDetector(small_config(kernel=kernel), seed=1)
        assert_engine_matches(model, chips(2))

    @pytest.mark.parametrize("levels", [(1,), (2, 1), (4, 2, 1), (3, 1)])
    def test_spp_levels(self, levels):
        model = SPPNetDetector(small_config(spp_levels=levels), seed=2)
        assert_engine_matches(model, chips(2))

    @pytest.mark.parametrize("fc", [(16,), (32, 16), (64, 32, 16)])
    def test_fc_widths(self, fc):
        model = SPPNetDetector(small_config(fc_sizes=fc), seed=3)
        assert_engine_matches(model, chips(2))


class TestExecutionModes:
    def test_float64_is_tighter(self):
        model = SPPNetDetector(small_config(), seed=4)
        assert_engine_matches(model, chips(2), dtype=np.float64, atol=1e-10)

    def test_variable_input_sizes_share_one_compile(self):
        model = SPPNetDetector(small_config(), seed=5)
        compiled = CompiledModel(model, (4, 32, 32))
        for size, width in [(32, 32), (40, 56), (28, 28)]:
            images = chips(2, size=size, width=width, seed=size)
            logits, boxes = eager_outputs(model, images)
            eng_logits, eng_boxes = compiled(images)
            np.testing.assert_allclose(eng_logits, logits, atol=ATOL, rtol=1e-4)
            np.testing.assert_allclose(eng_boxes, boxes, atol=ATOL, rtol=1e-4)

    def test_ragged_batches(self):
        model = SPPNetDetector(small_config(), seed=6)
        images = chips(5)
        conf, boxes = predict(model, images, batch_size=2)
        eng_conf, eng_boxes = predict(model, images, batch_size=2,
                                      backend="engine")
        np.testing.assert_allclose(eng_conf, conf, atol=ATOL, rtol=1e-4)
        np.testing.assert_allclose(eng_boxes, boxes, atol=ATOL, rtol=1e-4)

    def test_batchnorm_folds_into_conv(self):
        model = SPPNetDetector(small_config(use_batchnorm=True), seed=7)
        # Push the running statistics away from the (0, 1) init so the
        # fold actually rescales the conv weights.
        model.train()
        with no_grad():
            model(Tensor(chips(4, seed=11) * 3.0 + 1.0))
        model.eval()
        assert_engine_matches(model, chips(2))

    def test_tensor_input_accepted(self):
        model = SPPNetDetector(small_config(), seed=8)
        images = chips(2)
        compiled = engine_compile(model, (4, 32, 32))
        from_tensor = compiled(Tensor(images))
        from_array = compiled(images)
        np.testing.assert_array_equal(from_tensor[0], from_array[0])


def test_sigmoid_of_very_negative_logits_is_silent():
    """exp(200) overflows float32 to inf and 1 / (1 + inf) is the right
    answer: no RuntimeWarning, and the bits of the plain formula."""
    logits = np.array([[-200.0, -89.0, -5.0, 0.0, 200.0]], dtype=np.float32)
    out = np.empty_like(logits)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sigmoid_into(logits, out)
    with np.errstate(over="ignore"):
        plain = 1.0 / (np.exp(-logits) + np.float32(1.0))
    assert out.tobytes() == plain.astype(np.float32).tobytes()
    assert out[0, 0] == out[0, 1] == 0.0 and out[0, 3] == 0.5
    assert out[0, 4] == 1.0


class TestBackendSelection:
    def test_compiled_for_caches_per_instance(self):
        model = SPPNetDetector(small_config(), seed=9)
        # compiled_for defaults to the deployment chip shape, which needs
        # a real 100x100-capable config; the small config qualifies.
        assert compiled_for(model) is compiled_for(model)

    def test_unknown_backend_rejected(self):
        model = SPPNetDetector(small_config(), seed=9)
        with pytest.raises(ValueError, match="backend"):
            predict(model, chips(1), backend="tpu")

    def test_engine_snapshot_ignores_later_weight_edits(self):
        """The FC weight is the module's own array, frozen: an in-place
        edit raises instead of reaching the pack."""
        model = SPPNetDetector(small_config(), seed=10)
        images = chips(2)
        compiled = engine_compile(model, (4, 32, 32))
        before = [out.copy() for out in compiled(images)]
        with pytest.raises(ValueError, match="read-only"):
            model.cls_head.weight.data += 1.0
        for out, ref in zip(compiled(images), before):
            assert out.tobytes() == ref.tobytes()

    def test_float32_snapshot_ignores_later_weight_edits(self):
        """Rebinding every parameter (what ``load_state_dict`` does)
        leaves the pack, and so every engine output bit, as it was."""
        model = SPPNetDetector(small_config(), seed=10)
        images = chips(2)
        compiled = engine_compile(model, (4, 32, 32))
        before = [out.copy() for out in compiled(images)]
        for param in model.parameters():
            param.data = param.data + 1.0
        for out, ref in zip(compiled(images), before):
            assert out.tobytes() == ref.tobytes()

    def test_bias_edits_after_compile_do_not_reach_the_engine(self):
        """Every 1-D parameter edited in place after compile: a Linear
        bias is shared with the pack, so its edit raises; a conv bias
        lives on in a re-laid-out copy, so its edit lands in the module
        alone.  Either way no output bit moves."""
        model = SPPNetDetector(small_config(), seed=10)
        images = chips(2)
        compiled = engine_compile(model, (4, 32, 32))
        before = [out.copy() for out in compiled(images)]
        linear_biases = {id(m.bias) for m in model.modules()
                         if isinstance(m, Linear)}
        biases = [p for p in model.parameters() if p.data.ndim == 1]
        assert linear_biases < {id(p) for p in biases}
        for param in biases:
            if id(param) in linear_biases:
                with pytest.raises(ValueError, match="read-only"):
                    param.data += 1.0
            else:
                param.data += 1.0
        for out, ref in zip(compiled(images), before):
            assert out.tobytes() == ref.tobytes()
