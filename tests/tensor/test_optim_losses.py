"""The SGD optimizer and the loss functions."""

import numpy as np
import pytest

from repro.tensor import Tensor, losses
from repro.tensor.modules import Parameter
from repro.tensor.optim import SGD


def quad_param(value=5.0):
    return Parameter(np.array([value]))


def step_once(opt, p):
    opt.zero_grad()
    (p * p).sum().backward()
    opt.step()


class TestSGD:
    def test_plain_descent(self):
        p = quad_param()
        opt = SGD([p], lr=0.1, momentum=0.0, weight_decay=0.0)
        step_once(opt, p)  # grad = 2*5 = 10
        assert np.allclose(p.data, [4.0])

    def test_momentum_accumulates(self):
        p = quad_param()
        opt = SGD([p], lr=0.1, momentum=0.9, weight_decay=0.0)
        step_once(opt, p)
        v1 = p.data.copy()
        step_once(opt, p)
        # second step larger than a momentum-free step from v1
        assert (5.0 - v1[0]) < (v1[0] - p.data[0])

    def test_weight_decay_pulls_to_zero(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1, momentum=0.0, weight_decay=0.5)
        opt.zero_grad()
        Tensor.zeros(1).sum().backward() if False else None
        # no data gradient: decay alone shrinks the weight
        p.grad = np.zeros(1)
        opt.step()
        assert p.data[0] < 1.0

    def test_converges_on_quadratic(self):
        p = quad_param()
        opt = SGD([p], lr=0.05, momentum=0.9, weight_decay=0.0)
        for _ in range(300):
            step_once(opt, p)
        assert abs(p.data[0]) < 1e-3

    def test_skips_gradless_params(self):
        p, q = quad_param(), Parameter(np.array([7.0]))
        opt = SGD([p, q], lr=0.1)
        step_once(opt, p)
        assert np.allclose(q.data, [7.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)
        with pytest.raises(ValueError):
            SGD([quad_param()], lr=-1.0)
        with pytest.raises(ValueError):
            SGD([quad_param()], momentum=1.5)


class TestLosses:
    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((4, 3)), requires_grad=True)
        loss = losses.cross_entropy(logits, np.array([0, 1, 2, 0]))
        assert np.isclose(loss.item(), np.log(3))

    def test_cross_entropy_perfect(self):
        logits = Tensor(np.array([[100.0, 0.0], [0.0, 100.0]]))
        loss = losses.cross_entropy(logits, np.array([0, 1]))
        assert loss.item() < 1e-6

    def test_cross_entropy_validation(self):
        with pytest.raises(ValueError):
            losses.cross_entropy(Tensor(np.zeros((2, 2))), np.array([0, 5]))
        with pytest.raises(ValueError):
            losses.cross_entropy(Tensor(np.zeros(4)), np.array([0]))

    def test_bce_logits_matches_reference(self):
        x = np.array([0.5, -1.2, 3.0])
        t = np.array([1.0, 0.0, 1.0])
        loss = losses.binary_cross_entropy_with_logits(Tensor(x), t)
        p = 1 / (1 + np.exp(-x))
        ref = -(t * np.log(p) + (1 - t) * np.log(1 - p)).mean()
        assert np.isclose(loss.item(), ref)

    def test_smooth_l1_regions(self):
        pred = Tensor(np.array([0.05, 2.0]))
        target = np.zeros(2)
        loss = losses.smooth_l1(pred, target, beta=1.0)
        expected = (0.5 * 0.05**2 + (2.0 - 0.5)) / 2
        assert np.isclose(loss.item(), expected)

    def test_smooth_l1_validation(self):
        with pytest.raises(ValueError):
            losses.smooth_l1(Tensor(np.zeros(2)), np.zeros(2), beta=0.0)

    def test_detection_loss_negative_only_has_no_box_term(self):
        logits = Tensor(np.zeros((2, 2)), requires_grad=True)
        boxes = Tensor(np.zeros((2, 4)), requires_grad=True)
        labels = np.array([0, 0])
        loss = losses.detection_loss(logits, boxes, labels, np.zeros((2, 4)))
        loss.backward()
        assert boxes.grad is None or np.allclose(boxes.grad, 0)

    def test_detection_loss_positive_includes_box(self):
        logits = Tensor(np.zeros((2, 2)))
        boxes = Tensor(np.full((2, 4), 0.5), requires_grad=True)
        labels = np.array([1, 0])
        gt = np.zeros((2, 4))
        loss = losses.detection_loss(logits, boxes, labels, gt, box_weight=1.0)
        loss.backward()
        assert boxes.grad is not None
        assert np.allclose(boxes.grad[1], 0)  # negative row untouched
        assert not np.allclose(boxes.grad[0], 0)
