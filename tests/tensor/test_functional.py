"""Conv/pool/SPP kernels: shapes, values, and gradient checks."""

import numpy as np
import pytest

from repro.tensor import Tensor, functional as F, gradcheck

RNG = np.random.default_rng(42)


def rt(*shape, scale=1.0):
    return Tensor(RNG.standard_normal(shape) * scale, requires_grad=True)


class TestConv2d:
    def test_output_shape(self):
        x = Tensor(RNG.standard_normal((2, 3, 10, 10)))
        w = Tensor(RNG.standard_normal((5, 3, 3, 3)))
        assert F.conv2d(x, w).shape == (2, 5, 8, 8)
        assert F.conv2d(x, w, stride=2).shape == (2, 5, 4, 4)
        assert F.conv2d(x, w, padding=1).shape == (2, 5, 10, 10)

    def test_identity_kernel(self):
        x = Tensor(RNG.standard_normal((1, 1, 5, 5)))
        w = Tensor(np.ones((1, 1, 1, 1)))
        assert np.allclose(F.conv2d(x, w).data, x.data)

    def test_known_value(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        w = Tensor(np.ones((1, 1, 2, 2)))
        out = F.conv2d(x, w)
        assert out.data[0, 0, 0, 0] == 0 + 1 + 4 + 5

    def test_bias_added(self):
        x = Tensor(np.zeros((1, 1, 3, 3)))
        w = Tensor(np.zeros((2, 1, 3, 3)))
        b = Tensor(np.array([3.0, -1.0]))
        out = F.conv2d(x, w, b)
        assert np.allclose(out.data[0, :, 0, 0], [3.0, -1.0])

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.zeros((1, 2, 5, 5))), Tensor(np.zeros((1, 3, 3, 3))))

    def test_collapsed_output_raises(self):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))))

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (3, 2)])
    def test_gradcheck(self, stride, padding):
        x = rt(2, 2, 7, 7, scale=0.5)
        w = rt(3, 2, 3, 3, scale=0.3)
        b = rt(3, scale=0.1)
        assert gradcheck(
            lambda x, w, b: F.conv2d(x, w, b, stride=stride, padding=padding),
            [x, w, b],
        )

    def test_matches_direct_convolution(self):
        x = RNG.standard_normal((1, 2, 6, 6))
        w = RNG.standard_normal((3, 2, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w)).data
        # brute-force cross-correlation
        for f in range(3):
            for i in range(4):
                for j in range(4):
                    ref = (x[0, :, i:i + 3, j:j + 3] * w[f]).sum()
                    assert abs(out[0, f, i, j] - ref) < 1e-10


class TestPooling:
    def test_max_pool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = F.max_pool2d(x, 2, 2)
        assert np.allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_gradient_routes_to_argmax(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
        F.max_pool2d(x, 2, 2).sum().backward()
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1
        assert np.allclose(x.grad[0, 0], expected)

    def test_max_pool_gradient_on_noncontiguous_input(self):
        # Pool inputs in real models are transposed conv outputs; the
        # disjoint-window scatter must not lose writes when the gradient
        # buffer inherits a non-C layout.
        base = np.random.default_rng(0).standard_normal((2, 6, 6, 3))
        x = Tensor(base.transpose(0, 3, 1, 2), requires_grad=True)
        assert not x.data.flags["C_CONTIGUOUS"]
        out = F.max_pool2d(x, 2, 2)
        out.backward(np.ones_like(out.data))
        assert np.count_nonzero(x.grad) == out.data.size

    def test_strided_overlapping_pool_gradcheck(self):
        x = rt(1, 2, 7, 7)
        assert gradcheck(lambda t: F.max_pool2d(t, 3, 2), [x])

    def test_pool_output_size_error(self):
        with pytest.raises(ValueError):
            F.max_pool2d(Tensor(np.zeros((1, 1, 2, 2))), 4, 4)


class TestAdaptiveAndSPP:
    def test_adaptive_fixed_output(self):
        for h, w in [(7, 9), (10, 10), (13, 5)]:
            x = Tensor(RNG.standard_normal((2, 3, h, w)))
            assert F.adaptive_max_pool2d(x, 4).shape == (2, 3, 4, 4)

    def test_adaptive_level1_is_global_max(self):
        x = Tensor(RNG.standard_normal((2, 3, 6, 8)))
        out = F.adaptive_max_pool2d(x, 1)
        assert np.allclose(out.data[..., 0, 0], x.data.max(axis=(2, 3)))

    def test_adaptive_too_small_raises(self):
        with pytest.raises(ValueError):
            F.adaptive_max_pool2d(Tensor(np.zeros((1, 1, 3, 3))), 4)

    def test_adaptive_gradcheck(self):
        x = rt(2, 2, 9, 7)
        assert gradcheck(lambda t: F.adaptive_max_pool2d(t, 3), [x])

    def test_spp_fixed_length_any_size(self):
        levels = (4, 2, 1)
        expected = 3 * (16 + 4 + 1)
        for h, w in [(8, 8), (11, 9), (16, 23)]:
            x = Tensor(RNG.standard_normal((2, 3, h, w)))
            assert F.spatial_pyramid_pool(x, levels).shape == (2, expected)

    def test_spp_single_level(self):
        x = Tensor(RNG.standard_normal((2, 3, 8, 8)))
        assert F.spatial_pyramid_pool(x, (2,)).shape == (2, 12)

    def test_spp_empty_levels_raises(self):
        with pytest.raises(ValueError):
            F.spatial_pyramid_pool(Tensor(np.zeros((1, 1, 4, 4))), ())

    def test_spp_gradcheck(self):
        x = rt(2, 2, 8, 6)
        assert gradcheck(lambda t: F.spatial_pyramid_pool(t, (3, 2, 1)), [x])


class TestSoftmaxAndLinear:
    def test_softmax_rows_sum_to_one(self):
        x = Tensor(RNG.standard_normal((5, 7)) * 10)
        assert np.allclose(F.softmax(x, axis=1).data.sum(axis=1), 1.0)

    def test_softmax_stability_large_logits(self):
        x = Tensor(np.array([[1000.0, 1000.0]]))
        out = F.softmax(x, axis=1)
        assert np.allclose(out.data, [[0.5, 0.5]])

    def test_log_softmax_consistent(self):
        x = Tensor(RNG.standard_normal((3, 4)))
        assert np.allclose(F.log_softmax(x).data, np.log(F.softmax(x).data))

    def test_log_softmax_gradcheck(self):
        x = rt(3, 5)
        assert gradcheck(lambda t: F.log_softmax(t, axis=1), [x])

    def test_linear_shapes_and_values(self):
        x = Tensor(np.ones((2, 3)))
        w = Tensor(np.ones((4, 3)))
        b = Tensor(np.arange(4.0))
        out = F.linear(x, w, b)
        assert out.shape == (2, 4)
        assert np.allclose(out.data[0], [3, 4, 5, 6])


class TestDropout:
    def test_eval_mode_identity(self):
        x = Tensor(np.ones((4, 4)))
        out = F.dropout(x, 0.5, training=False, rng=np.random.default_rng(0))
        assert out is x

    def test_training_scales_kept(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((100, 100)))
        out = F.dropout(x, 0.5, training=True, rng=rng)
        kept = out.data[out.data > 0]
        assert np.allclose(kept, 2.0)
        assert 0.4 < (out.data > 0).mean() < 0.6

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0, True, np.random.default_rng(0))


class TestShapeHelpers:
    def test_conv_output_size(self):
        assert F.conv_output_size(100, 3, 1, 0) == 98
        assert F.conv_output_size(10, 3, 2, 1) == 5

    def test_pool_output_size(self):
        assert F.pool_output_size(98, 2, 2) == 49

    def test_helpers_raise_on_collapse(self):
        with pytest.raises(ValueError):
            F.conv_output_size(2, 5, 1, 0)
        with pytest.raises(ValueError):
            F.pool_output_size(1, 2, 2)
