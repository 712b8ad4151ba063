"""Loss functions for classification and bounding-box regression.

The detection head of the SPP-Net models is trained with a multi-task
loss: cross-entropy on the crossing/background class plus a smooth-L1
term on the box offsets for positive samples (the Fast R-CNN recipe the
paper's related-work baseline uses).
"""

from __future__ import annotations

import numpy as np

from .functional import log_softmax
from .tensor import Tensor, as_tensor

__all__ = [
    "cross_entropy",
    "binary_cross_entropy_with_logits",
    "smooth_l1",
    "detection_loss",
]


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between row logits and integer class targets."""
    logits = as_tensor(logits)
    targets = np.asarray(targets, dtype=np.intp)
    if logits.ndim != 2:
        raise ValueError(f"expected (N, classes) logits, got shape {logits.shape}")
    if targets.shape != (logits.shape[0],):
        raise ValueError(f"targets shape {targets.shape} does not match batch {logits.shape[0]}")
    if targets.min(initial=0) < 0 or targets.max(initial=0) >= logits.shape[1]:
        raise ValueError("target class index out of range")
    logp = log_softmax(logits, axis=1)
    picked = logp[np.arange(len(targets)), targets]
    return -picked.mean()


def binary_cross_entropy_with_logits(
    logits: Tensor,
    targets: np.ndarray,
    pos_weight: float | None = None,
) -> Tensor:
    """Numerically stable BCE on raw logits, mean-reduced.

    ``pos_weight`` multiplies the positive-class term (PyTorch semantics),
    the standard counter to the anchor imbalance of region-proposal
    training: with one true anchor among hundreds, an unweighted BCE is
    minimized by predicting "background" everywhere.
    """
    logits = as_tensor(logits)
    t_arr = np.asarray(targets, dtype=float)
    t = Tensor(t_arr)
    # softplus(-x) = relu(-x) + log(1 + exp(-|x|)), stable for any x.
    softplus_neg = (-logits).relu() + (1.0 + (-logits.abs()).exp()).log()
    if pos_weight is None:
        return (softplus_neg + logits * (1.0 - t)).mean()
    if pos_weight <= 0:
        raise ValueError("pos_weight must be positive")
    w = Tensor(pos_weight * t_arr + (1.0 - t_arr))
    return (w * softplus_neg + logits * (1.0 - t)).mean()


def smooth_l1(pred: Tensor, target: np.ndarray, beta: float = 1.0) -> Tensor:
    """Huber / smooth-L1 loss, mean-reduced.

    ``0.5 d^2 / beta`` for ``|d| < beta`` else ``|d| - 0.5 beta``.
    Implemented with masked tensor arithmetic so gradients stay exact at
    the transition.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    pred = as_tensor(pred)
    diff = pred - Tensor(np.asarray(target, dtype=float))
    absdiff = diff.abs()
    quadratic_mask = (absdiff.data < beta).astype(float)
    quadratic = (diff * diff) * (0.5 / beta)
    lin = absdiff - 0.5 * beta
    return (quadratic * Tensor(quadratic_mask) + lin * Tensor(1.0 - quadratic_mask)).mean()


def detection_loss(
    class_logits: Tensor,
    box_pred: Tensor,
    labels: np.ndarray,
    boxes: np.ndarray,
    box_weight: float = 1.0,
) -> Tensor:
    """Fast-R-CNN-style multi-task loss.

    Parameters
    ----------
    class_logits : (N, 2) crossing-vs-background logits
    box_pred : (N, 4) predicted normalized box (cx, cy, w, h)
    labels : (N,) int, 1 = crossing present
    boxes : (N, 4) ground-truth normalized boxes; rows for negative samples
        are ignored.
    """
    labels = np.asarray(labels, dtype=np.intp)
    cls = cross_entropy(class_logits, labels)
    pos = np.flatnonzero(labels == 1)
    if pos.size == 0:
        return cls
    box_term = smooth_l1(box_pred[pos], np.asarray(boxes, dtype=float)[pos], beta=0.1)
    return cls + box_weight * box_term
