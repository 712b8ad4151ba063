"""Batched inference and dataset evaluation for trained detectors."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..tensor import Tensor, no_grad
from ..tensor import functional as F
from .metrics import DetectionScores, score_detections
from .sppnet import SPPNetDetector

if TYPE_CHECKING:
    from ..geo.chips import ChipDataset

__all__ = ["predict", "evaluate_detector"]


def predict(
    model: SPPNetDetector,
    images: np.ndarray,
    batch_size: int = 20,
    backend: str = "eager",
) -> tuple[np.ndarray, np.ndarray]:
    """Run the detector over ``images`` (N, C, H, W).

    Returns (confidences, boxes): crossing probability and normalized
    (cx, cy, w, h) box per image.

    ``backend="engine"`` routes through the compiled inference engine
    (:func:`repro.engine.compile`): identical outputs within float32
    tolerance, several times faster per chip.  The compiled program
    snapshots the weights on first use per model instance, so it is
    meant for trained models at deployment time; the default eager
    backend always reads the live parameters and runs in their dtype
    (float32 for an ``SPPNetDetector``): the images are cast to it, so
    no op makes a float64 copy of the weights.
    """
    if images.ndim != 4:
        raise ValueError(f"expected (N, C, H, W) images, got shape {images.shape}")
    if backend not in ("eager", "engine"):
        raise ValueError(f"unknown backend {backend!r}; use 'eager' or 'engine'")
    model.eval()
    if backend == "engine":
        from ..engine import compiled_for

        return compiled_for(model).predict(images, batch_size=batch_size)
    dtype = next(model.parameters()).dtype
    confidences: list[np.ndarray] = []
    boxes: list[np.ndarray] = []
    with no_grad():
        for start in range(0, len(images), batch_size):
            batch = Tensor(images[start:start + batch_size], dtype=dtype)
            class_logits, box_pred = model(batch)
            probs = F.softmax(class_logits, axis=1)
            confidences.append(probs.data[:, 1].copy())
            boxes.append(box_pred.data.copy())
    return np.concatenate(confidences), np.concatenate(boxes)


def evaluate_detector(
    model: SPPNetDetector,
    dataset: ChipDataset,
    batch_size: int = 20,
    iou_threshold: float = 0.5,
    backend: str = "eager",
) -> DetectionScores:
    """Score a detector on a chip dataset (AP per Eq. 1, accuracy, IoU)."""
    confidences, boxes = predict(model, dataset.images, batch_size=batch_size,
                                 backend=backend)
    return score_detections(
        confidences, boxes, dataset.labels, dataset.boxes, iou_threshold=iou_threshold
    )
