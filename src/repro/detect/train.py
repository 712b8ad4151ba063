"""Training loop reproducing the paper's §6.1 setup.

SGD with learning rate 0.005, weight decay 0.0005, momentum 0.9, batch
size 20, multi-task detection loss (cross-entropy + smooth-L1 box term).
Training runs in float32 (what the GPU pipeline uses); the previous
default dtype is restored afterwards so gradient-checking code is never
affected.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..arch import SPPNetConfig
from ..tensor import Tensor, losses, set_default_dtype
from ..tensor.optim import SGD
from .metrics import DetectionScores
from .predict import evaluate_detector
from .sppnet import SPPNetDetector

if TYPE_CHECKING:
    from ..geo.chips import ChipDataset

__all__ = ["TrainConfig", "EpochStats", "TrainResult", "train_detector"]


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyper-parameters (§6.1 defaults)."""

    epochs: int = 10
    batch_size: int = 20
    learning_rate: float = 0.005
    momentum: float = 0.9
    weight_decay: float = 0.0005
    box_weight: float = 1.0
    seed: int = 0
    eval_every: int = 0   # 0 = evaluate only at the end
    verbose: bool = False

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True)
class EpochStats:
    """Per-epoch training record."""

    epoch: int
    mean_loss: float
    duration_s: float
    test_ap: float | None = None


@dataclass
class TrainResult:
    """Trained model plus its training history and final evaluation."""

    model: SPPNetDetector
    config: SPPNetConfig
    history: list[EpochStats] = field(default_factory=list)
    test_scores: DetectionScores | None = None

    @property
    def test_ap(self) -> float:
        return self.test_scores.ap if self.test_scores else float("nan")


def train_detector(
    arch: SPPNetConfig,
    train_set: ChipDataset,
    test_set: ChipDataset | None = None,
    config: TrainConfig | None = None,
) -> TrainResult:
    """Train one SPP-Net candidate and evaluate its AP on the test set."""
    config = config if config is not None else TrainConfig()
    previous_dtype = set_default_dtype(np.float32)
    try:
        model = SPPNetDetector(arch, seed=config.seed)
        optimizer = SGD(
            model.parameters(),
            lr=config.learning_rate,
            momentum=config.momentum,
            weight_decay=config.weight_decay,
        )
        result = TrainResult(model=model, config=arch)
        for epoch in range(1, config.epochs + 1):
            model.train()
            start = time.perf_counter()
            batch_losses: list[float] = []
            for images, labels, boxes in train_set.batches(
                config.batch_size, seed=config.seed * 10_000 + epoch
            ):
                optimizer.zero_grad()
                class_logits, box_pred = model(Tensor(images))
                loss = losses.detection_loss(
                    class_logits, box_pred, labels, boxes, box_weight=config.box_weight
                )
                loss.backward()
                optimizer.step()
                batch_losses.append(loss.item())
            test_ap = None
            if test_set is not None and config.eval_every and epoch % config.eval_every == 0:
                test_ap = evaluate_detector(model, test_set).ap
            stats = EpochStats(
                epoch=epoch,
                mean_loss=float(np.mean(batch_losses)),
                duration_s=time.perf_counter() - start,
                test_ap=test_ap,
            )
            result.history.append(stats)
            if config.verbose:
                extra = f" test AP {test_ap:.4f}" if test_ap is not None else ""
                print(f"[{arch.name}] epoch {epoch:2d} "
                      f"loss {stats.mean_loss:.4f} ({stats.duration_s:.1f}s){extra}")
        if test_set is not None:
            result.test_scores = evaluate_detector(model, test_set)
        return result
    finally:
        set_default_dtype(previous_dtype)
