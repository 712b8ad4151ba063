"""Cross-validation utilities.

The paper evaluates on a single 80/20 split; for a dataset this small,
split variance can reorder closely-ranked architectures (one plausible
source of Table 2's physically-odd orderings).  K-fold evaluation
quantifies that variance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..arch import SPPNetConfig
from .metrics import DetectionScores
from .train import TrainConfig, train_detector

if TYPE_CHECKING:
    from ..geo.chips import ChipDataset

__all__ = ["FoldResult", "CrossValidationResult", "kfold_indices", "kfold_evaluate"]


def kfold_indices(n: int, k: int, seed: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """Shuffled k-fold (train_idx, test_idx) pairs covering all ``n`` samples."""
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    order = np.random.default_rng(seed).permutation(n)
    folds = np.array_split(order, k)
    out = []
    for i in range(k):
        test = folds[i]
        train = np.concatenate([folds[j] for j in range(k) if j != i])
        out.append((train, test))
    return out


@dataclass(frozen=True)
class FoldResult:
    """Evaluation of one fold."""

    fold: int
    scores: DetectionScores
    train_size: int
    test_size: int


@dataclass
class CrossValidationResult:
    """Aggregated k-fold outcome."""

    folds: list[FoldResult]

    @property
    def mean_ap(self) -> float:
        return float(np.mean([f.scores.ap for f in self.folds]))

    @property
    def std_ap(self) -> float:
        return float(np.std([f.scores.ap for f in self.folds]))

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean([f.scores.accuracy for f in self.folds]))

    def summary(self) -> str:
        return (f"{len(self.folds)}-fold: AP {self.mean_ap:.4f} "
                f"+/- {self.std_ap:.4f}, accuracy {self.mean_accuracy:.4f}")


def kfold_evaluate(
    arch: SPPNetConfig,
    dataset: ChipDataset,
    k: int = 5,
    train_config: TrainConfig | None = None,
    iou_threshold: float = 0.35,
    seed: int = 0,
) -> CrossValidationResult:
    """Train/evaluate ``arch`` on each of ``k`` folds of ``dataset``."""
    from .predict import evaluate_detector

    train_config = train_config if train_config is not None else TrainConfig()
    folds: list[FoldResult] = []
    for i, (train_idx, test_idx) in enumerate(kfold_indices(len(dataset), k, seed)):
        train_set = dataset.subset(train_idx)
        test_set = dataset.subset(test_idx)
        result = train_detector(arch, train_set, None, train_config)
        scores = evaluate_detector(result.model, test_set,
                                   iou_threshold=iou_threshold)
        folds.append(FoldResult(fold=i, scores=scores,
                                train_size=len(train_set),
                                test_size=len(test_set)))
    return CrossValidationResult(folds=folds)
