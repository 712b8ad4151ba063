"""Two-stage region-proposal baseline (the related-work comparison, §8.1).

The paper's related work applies a faster R-CNN (ResNet-50 backbone,
confidence threshold 0.7) to the same watershed and reports accuracy
0.882 with mean box IoU 0.668.  This module implements a compact
faster-R-CNN-style detector on the repro substrate so the comparison can
be run end to end:

* a small convolutional **backbone** shared by both stages;
* a **region proposal network**: 3×3 conv + 1×1 objectness logit per
  feature cell, one fixed-size anchor per cell (drainage structures are
  near-isotropic at 1 m resolution, so one scale suffices);
* a **RoI head**: adaptive max pooling (the SPP building block) over each
  proposal's backbone window, then FC classification + box refinement.

Everything trains jointly with the Fast-R-CNN multi-task recipe:
objectness BCE on anchors + CE/smooth-L1 on RoIs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..tensor import (
    Conv2d,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Sequential,
    Tensor,
    losses,
    no_grad,
    set_default_dtype,
)
from ..tensor import functional as F
from .metrics import DetectionScores, iou_cxcywh, score_detections

if TYPE_CHECKING:
    from ..geo.chips import ChipDataset

__all__ = ["RCNNConfig", "FasterRCNNLite", "train_rcnn", "evaluate_rcnn"]


@dataclass(frozen=True)
class RCNNConfig:
    """Hyper-parameters of the baseline detector."""

    in_channels: int = 4
    backbone_channels: tuple[int, ...] = (32, 64, 128)
    rpn_channels: int = 64
    roi_pool: int = 4
    head_width: int = 256
    anchor_size: float = 0.22      # anchor edge as a fraction of the image
    proposal_count: int = 4        # RoIs per image after objectness ranking
    confidence_threshold: float = 0.7  # the related-work operating point

    def __post_init__(self) -> None:
        if not self.backbone_channels:
            raise ValueError("backbone needs at least one stage")
        if not 0 < self.anchor_size < 1:
            raise ValueError("anchor_size must be a fraction of the image")
        if self.proposal_count < 1:
            raise ValueError("proposal_count must be >= 1")


class FasterRCNNLite(Module):
    """Compact two-stage detector (see module docstring)."""

    def __init__(self, config: RCNNConfig | None = None, seed: int = 0) -> None:
        super().__init__()
        self.config = config if config is not None else RCNNConfig()
        rng = np.random.default_rng(seed)
        layers: list[Module] = []
        channels = self.config.in_channels
        for out_channels in self.config.backbone_channels:
            layers += [Conv2d(channels, out_channels, 3, padding=1, rng=rng),
                       ReLU(), MaxPool2d(2, 2)]
            channels = out_channels
        self.backbone = Sequential(*layers)
        self.feature_channels = channels
        self.rpn_conv = Conv2d(channels, self.config.rpn_channels, 3,
                               padding=1, rng=rng)
        self.rpn_logit = Conv2d(self.config.rpn_channels, 1, 1, rng=rng)
        head_in = channels * self.config.roi_pool**2
        self.head_fc = Linear(head_in, self.config.head_width, rng=rng)
        self.cls_head = Linear(self.config.head_width, 2, rng=rng)
        self.box_head = Linear(self.config.head_width, 4, rng=rng)
        # Near-zero init for the delta regressor: un-pooled RoI activations
        # are large, and a Kaiming-scale matmul would saturate the tanh
        # decode at step 0, killing its gradients (standard detection-head
        # practice is to zero-init the box branch).
        self.box_head.weight.data *= 0.01

    # -- stage 1 ----------------------------------------------------------
    def features(self, x: Tensor) -> Tensor:
        return self.backbone(x)

    def objectness(self, feature: Tensor) -> Tensor:
        """(N, 1, h, w) anchor logits over the feature grid."""
        return self.rpn_logit(self.rpn_conv(feature).relu())

    def propose(self, objectness: np.ndarray) -> np.ndarray:
        """Top-k anchor boxes per image from an objectness map.

        Returns (N, k, 4) normalized (cx, cy, w, h); anchors are fixed
        ``anchor_size`` squares centered on feature cells.
        """
        n, _, h, w = objectness.shape
        k = min(self.config.proposal_count, h * w)
        flat = objectness.reshape(n, -1)
        top = np.argsort(-flat, axis=1)[:, :k]
        rows, cols = np.divmod(top, w)
        cx = (cols + 0.5) / w
        cy = (rows + 0.5) / h
        size = np.full_like(cx, self.config.anchor_size, dtype=float)
        return np.stack([cx, cy, size, size], axis=-1)

    # -- stage 2 --------------------------------------------------------------
    def roi_features(self, feature: Tensor, boxes: np.ndarray) -> Tensor:
        """RoI-pool each proposal window to a fixed vector.

        boxes : (N, k, 4) normalized; windows are clipped to the map and
        expanded to at least ``roi_pool`` cells so adaptive pooling is
        defined.
        """
        n, _, h, w = feature.shape
        k = boxes.shape[1]
        pooled: list[Tensor] = []
        min_cells = self.config.roi_pool
        for i in range(n):
            for j in range(k):
                cx, cy, bw, bh = boxes[i, j]
                half_w = max(bw * w / 2, min_cells / 2)
                half_h = max(bh * h / 2, min_cells / 2)
                c0 = int(np.clip(np.floor(cx * w - half_w), 0, w - min_cells))
                r0 = int(np.clip(np.floor(cy * h - half_h), 0, h - min_cells))
                c1 = int(np.clip(np.ceil(cx * w + half_w), c0 + min_cells, w))
                r1 = int(np.clip(np.ceil(cy * h + half_h), r0 + min_cells, h))
                window = feature[i:i + 1, :, r0:r1, c0:c1]
                pooled.append(
                    F.adaptive_max_pool2d(window, self.config.roi_pool)
                    .flatten(start_dim=1)
                )
        return Tensor.concat(pooled, axis=0)  # (N*k, C*pool^2)

    def classify_rois(self, feature: Tensor, boxes: np.ndarray
                      ) -> tuple[Tensor, Tensor]:
        """(N*k, 2) class logits and (N*k, 4) refined boxes in [0, 1].

        Box refinement is *relative to the proposal* (the R-CNN
        parameterization): RoI features carry no absolute position, so
        the head predicts bounded deltas that are decoded against the
        proposal box — centers may shift by up to half an anchor, sizes
        rescale within [1/e^0.7, e^0.7].
        """
        hidden = self.head_fc(self.roi_features(feature, boxes)).relu()
        deltas = self.box_head(hidden).tanh()
        proposals = Tensor(boxes.reshape(-1, 4).astype(float))
        shift = self.config.anchor_size / 2.0
        centers = proposals[:, :2] + shift * deltas[:, :2]
        sizes = proposals[:, 2:] * (0.7 * deltas[:, 2:]).exp()
        refined = Tensor.concat([centers, sizes], axis=1).clip(0.0, 1.0)
        return self.cls_head(hidden), refined

    def forward(self, x: Tensor) -> tuple[Tensor, np.ndarray, Tensor, Tensor]:
        """Full two-stage pass: objectness, proposals, RoI outputs."""
        feature = self.features(x)
        obj = self.objectness(feature)
        proposals = self.propose(obj.data)
        cls_logits, refined = self.classify_rois(feature, proposals)
        return obj, proposals, cls_logits, refined


def _anchor_targets(obj_shape: tuple[int, ...], labels: np.ndarray,
                    gt_boxes: np.ndarray, anchor: float) -> np.ndarray:
    """Per-cell objectness targets: 1 where the fixed anchor at that cell
    overlaps the ground-truth box at IoU >= 0.3."""
    n, _, h, w = obj_shape
    targets = np.zeros((n, 1, h, w))
    cy, cx = np.meshgrid((np.arange(h) + 0.5) / h, (np.arange(w) + 0.5) / w,
                         indexing="ij")
    anchors = np.stack([cx, cy, np.full_like(cx, anchor),
                        np.full_like(cx, anchor)], axis=-1)
    for i in range(n):
        if labels[i] != 1:
            continue
        overlap = iou_cxcywh(anchors, gt_boxes[i])
        targets[i, 0] = overlap >= 0.3
    return targets


def train_rcnn(
    train_set: ChipDataset,
    config: RCNNConfig | None = None,
    epochs: int = 6,
    batch_size: int = 10,
    learning_rate: float = 0.001,
    seed: int = 0,
    verbose: bool = False,
) -> FasterRCNNLite:
    """Jointly train RPN + RoI head with the related-work recipe
    (SGD, lr 0.001, decay 0.005, momentum 0.9)."""
    from ..tensor.optim import SGD

    previous = set_default_dtype(np.float32)
    try:
        model = FasterRCNNLite(config, seed=seed)
        cfg = model.config
        rng = np.random.default_rng(seed + 7919)
        optimizer = SGD(model.parameters(), lr=learning_rate,
                        momentum=0.9, weight_decay=0.005)
        for epoch in range(1, epochs + 1):
            epoch_losses = []
            for images, labels, gt_boxes in train_set.batches(
                    batch_size, seed=seed * 999 + epoch):
                optimizer.zero_grad()
                feature = model.features(Tensor(images))
                obj = model.objectness(feature)
                rpn_targets = _anchor_targets(obj.shape, labels, gt_boxes,
                                              cfg.anchor_size)
                rpn_loss = losses.binary_cross_entropy_with_logits(
                    obj.flatten(start_dim=1),
                    rpn_targets.reshape(len(images), -1),
                    pos_weight=16.0,
                )
                # RoI head trains on anchor-sized windows jittered around
                # the ground truth — the distribution it will see from the
                # RPN at inference — so the delta regression learns to
                # correct realistic proposal offsets.  Negatives keep the
                # RPN's own top proposal.
                proposals = model.propose(obj.data)[:, :1, :]
                pos = labels == 1
                n_pos = int(pos.sum())
                if n_pos:
                    jitter = rng.uniform(-0.4, 0.4, (n_pos, 2)) * cfg.anchor_size
                    jittered = gt_boxes[pos].copy()
                    jittered[:, :2] = np.clip(jittered[:, :2] + jitter, 0.0, 1.0)
                    jittered[:, 2:] = cfg.anchor_size
                    proposals[pos, 0] = jittered
                cls_logits, refined = model.classify_rois(feature, proposals)
                head_loss = losses.detection_loss(
                    cls_logits, refined, labels, gt_boxes, box_weight=3.0
                )
                loss = rpn_loss + head_loss
                loss.backward()
                optimizer.step()
                epoch_losses.append(loss.item())
            if verbose:
                print(f"[rcnn] epoch {epoch:2d} loss {np.mean(epoch_losses):.4f}")
        return model
    finally:
        set_default_dtype(previous)


def evaluate_rcnn(model: FasterRCNNLite, dataset: ChipDataset,
                  batch_size: int = 10, iou_threshold: float = 0.35
                  ) -> DetectionScores:
    """One detection per chip: the top RPN proposal, classified and
    refined by the RoI head (faster-R-CNN ranking: RPN score selects the
    region, the head scores and snaps it)."""
    model.eval()
    confidences: list[np.ndarray] = []
    boxes: list[np.ndarray] = []
    with no_grad():
        for start in range(0, len(dataset), batch_size):
            images = dataset.images[start:start + batch_size]
            _, _, cls_logits, refined = model(Tensor(images))
            k = model.config.proposal_count
            probs = F.softmax(cls_logits, axis=1).data[:, 1].reshape(len(images), k)
            refined = refined.data.reshape(len(images), k, 4)
            # proposals are objectness-ranked; column 0 is the RPN's best
            confidences.append(probs[:, 0])
            boxes.append(refined[:, 0])
    return score_detections(
        np.concatenate(confidences), np.concatenate(boxes),
        dataset.labels, dataset.boxes, iou_threshold=iou_threshold,
        decision_threshold=model.config.confidence_threshold,
    )
