"""Core autograd engine tests: arithmetic, broadcasting, tape mechanics."""

import numpy as np
import pytest

from repro.tensor import Tensor, as_tensor, gradcheck, is_grad_enabled, no_grad, unbroadcast


def t(data, grad=True):
    return Tensor(data, requires_grad=grad)


class TestConstruction:
    def test_wraps_array(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert x.shape == (2, 2)
        assert x.dtype == np.float64

    def test_from_tensor_shares_data(self):
        x = Tensor([1.0, 2.0])
        y = Tensor(x)
        assert np.shares_memory(x.data, y.data)

    def test_factories(self):
        assert Tensor.zeros(2, 3).data.sum() == 0
        assert Tensor.ones(4).data.sum() == 4
        assert Tensor.randn(2, 2, rng=np.random.default_rng(0)).shape == (2, 2)

    def test_item_requires_scalar(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()

    def test_len_and_size(self):
        x = Tensor.zeros(3, 4)
        assert len(x) == 3 and x.size == 12 and x.ndim == 2


class TestArithmeticGradients:
    def test_add_backward(self):
        x, y = t([1.0, 2.0]), t([3.0, 4.0])
        (x + y).sum().backward()
        assert np.allclose(x.grad, [1, 1]) and np.allclose(y.grad, [1, 1])

    def test_mul_backward(self):
        x, y = t([2.0, 3.0]), t([5.0, 7.0])
        (x * y).sum().backward()
        assert np.allclose(x.grad, [5, 7]) and np.allclose(y.grad, [2, 3])

    def test_div_backward(self):
        x, y = t([6.0]), t([2.0])
        (x / y).backward()
        assert np.allclose(x.grad, [0.5]) and np.allclose(y.grad, [-1.5])

    def test_pow_backward(self):
        x = t([3.0])
        (x ** 2).backward()
        assert np.allclose(x.grad, [6.0])

    def test_neg_and_sub(self):
        x, y = t([1.0]), t([4.0])
        (x - y).backward()
        assert np.allclose(x.grad, [1.0]) and np.allclose(y.grad, [-1.0])

    def test_rsub_rdiv_radd(self):
        x = t([2.0])
        (5.0 - x).backward()
        assert np.allclose(x.grad, [-1.0])
        x.zero_grad()
        (8.0 / x).backward()
        assert np.allclose(x.grad, [-2.0])

    def test_matmul_backward(self):
        a, b = t([[1.0, 2.0], [3.0, 4.0]]), t([[5.0, 6.0], [7.0, 8.0]])
        (a @ b).sum().backward()
        assert np.allclose(a.grad, [[11, 15], [11, 15]])
        assert np.allclose(b.grad, [[4, 4], [6, 6]])

    def test_gradient_accumulates_on_reuse(self):
        x = t([2.0])
        y = x * x  # x used twice
        y.backward()
        assert np.allclose(x.grad, [4.0])

    def test_diamond_graph(self):
        x = t([3.0])
        a = x * 2.0
        b = x + 1.0
        (a * b).backward()  # d/dx (2x(x+1)) = 4x + 2
        assert np.allclose(x.grad, [14.0])


class TestBroadcasting:
    def test_unbroadcast_sums_leading(self):
        g = np.ones((4, 3, 2))
        assert unbroadcast(g, (3, 2)).shape == (3, 2)
        assert unbroadcast(g, (3, 2))[0, 0] == 4

    def test_unbroadcast_singleton(self):
        g = np.ones((3, 5))
        out = unbroadcast(g, (3, 1))
        assert out.shape == (3, 1) and out[0, 0] == 5

    def test_broadcast_add_grad(self):
        x, b = t(np.ones((4, 3))), t(np.zeros(3))
        (x + b).sum().backward()
        assert np.allclose(b.grad, [4, 4, 4])

    def test_scalar_broadcast(self):
        x = t(np.ones((2, 2)))
        (x * 3.0).sum().backward()
        assert np.allclose(x.grad, 3 * np.ones((2, 2)))


class TestReductionsAndShape:
    def test_sum_axis_keepdims(self):
        x = t(np.arange(6.0).reshape(2, 3))
        x.sum(axis=1, keepdims=True).sum().backward()
        assert np.allclose(x.grad, np.ones((2, 3)))

    def test_mean_gradient(self):
        x = t(np.ones((2, 5)))
        x.mean().backward()
        assert np.allclose(x.grad, np.full((2, 5), 0.1))

    def test_max_splits_ties(self):
        x = t([2.0, 2.0, 1.0])
        x.max().backward()
        assert np.allclose(x.grad, [0.5, 0.5, 0.0])

    def test_max_axis(self):
        x = t([[1.0, 5.0], [7.0, 2.0]])
        x.max(axis=1).sum().backward()
        assert np.allclose(x.grad, [[0, 1], [1, 0]])

    def test_reshape_roundtrip(self):
        x = t(np.arange(6.0))
        x.reshape(2, 3).sum().backward()
        assert x.grad.shape == (6,)

    def test_transpose_grad(self):
        x = t(np.arange(6.0).reshape(2, 3))
        (x.T * Tensor(np.arange(6.0).reshape(3, 2))).sum().backward()
        assert x.grad.shape == (2, 3)

    def test_getitem_scatter(self):
        x = t(np.arange(5.0))
        x[np.array([0, 0, 2])].sum().backward()
        assert np.allclose(x.grad, [2, 0, 1, 0, 0])

    def test_concat_grad(self):
        a, b = t(np.ones((2, 2))), t(np.ones((3, 2)))
        Tensor.concat([a, b], axis=0).sum().backward()
        assert a.grad.shape == (2, 2) and b.grad.shape == (3, 2)

    def test_stack_grad(self):
        a, b = t([1.0, 2.0]), t([3.0, 4.0])
        Tensor.stack([a, b]).sum().backward()
        assert np.allclose(a.grad, [1, 1]) and np.allclose(b.grad, [1, 1])

    def test_pad2d(self):
        x = t(np.ones((1, 1, 2, 2)))
        y = x.pad2d(1)
        assert y.shape == (1, 1, 4, 4)
        y.sum().backward()
        assert np.allclose(x.grad, np.ones((1, 1, 2, 2)))

    def test_flatten_start_dim(self):
        x = Tensor.zeros(2, 3, 4)
        assert x.flatten(start_dim=1).shape == (2, 12)


class TestGradcheck:
    """Finite differences against the analytic backward of the shape and
    selection ops; the output is weighted so every gradient entry differs."""

    @pytest.mark.parametrize("op,shapes", [
        (lambda x: x[np.array([0, 0, 2]), 1:], [(4, 3)]),
        (lambda x: x.pad2d((1, 2)), [(1, 2, 3, 3)]),
        (lambda a, b: Tensor.concat([a, b], axis=1), [(2, 3), (2, 1)]),
        (lambda a, b: Tensor.stack([a, b], axis=1), [(2, 3), (2, 3)]),
        (lambda x: x.max(axis=1), [(3, 4)]),
        (lambda x: x.clip(-0.5, 0.5), [(3, 4)]),
    ], ids=["getitem", "pad2d", "concat", "stack", "max", "clip"])
    def test_matches_finite_differences(self, op, shapes):
        rng = np.random.default_rng(0)
        inputs = [t(rng.standard_normal(shape)) for shape in shapes]
        weight = Tensor(rng.standard_normal(op(*inputs).shape))
        assert gradcheck(lambda *xs: op(*xs) * weight, inputs)


class TestUnaryOps:
    @pytest.mark.parametrize("op,deriv", [
        ("exp", lambda v: np.exp(v)),
        ("tanh", lambda v: 1 - np.tanh(v) ** 2),
        ("sigmoid", lambda v: (1 / (1 + np.exp(-v))) * (1 - 1 / (1 + np.exp(-v)))),
    ])
    def test_unary_derivatives(self, op, deriv):
        v = np.array([0.3, -0.7, 1.2])
        x = t(v)
        getattr(x, op)().sum().backward()
        assert np.allclose(x.grad, deriv(v), atol=1e-10)

    def test_log_grad(self):
        x = t([2.0, 4.0])
        x.log().sum().backward()
        assert np.allclose(x.grad, [0.5, 0.25])

    def test_relu_masks(self):
        x = t([-1.0, 0.0, 2.0])
        x.relu().sum().backward()
        assert np.allclose(x.grad, [0, 0, 1])

    def test_abs_sign(self):
        x = t([-2.0, 3.0])
        x.abs().sum().backward()
        assert np.allclose(x.grad, [-1, 1])

    def test_clip_gradient_gate(self):
        x = t([-2.0, 0.5, 2.0])
        x.clip(-1.0, 1.0).sum().backward()
        assert np.allclose(x.grad, [0, 1, 0])

    def test_sqrt(self):
        x = t([4.0])
        x.sqrt().backward()
        assert np.allclose(x.grad, [0.25])


class TestTapeMechanics:
    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_nonscalar_needs_grad_arg(self):
        x = t([1.0, 2.0])
        with pytest.raises(RuntimeError):
            (x * 2).backward()
        (x * 2).backward(np.ones(2))
        assert np.allclose(x.grad, [2, 2])

    def test_no_grad_blocks_tape(self):
        x = t([1.0])
        with no_grad():
            assert not is_grad_enabled()
            y = x * 2
        assert is_grad_enabled()
        assert not y.requires_grad

    def test_detach(self):
        x = t([1.0])
        assert not x.detach().requires_grad

    def test_comparison_returns_arrays(self):
        x = Tensor([1.0, 3.0])
        assert (x > 2.0).tolist() == [False, True]
        assert (x <= 1.0).tolist() == [True, False]

    def test_as_tensor_identity(self):
        x = Tensor([1.0])
        assert as_tensor(x) is x
        assert isinstance(as_tensor([1.0]), Tensor)

    def test_deep_chain_no_recursion_error(self):
        x = t([1.0])
        y = x
        for _ in range(2000):
            y = y + 1.0
        y.backward()
        assert np.allclose(x.grad, [1.0])
