"""repro.detect — SPP-Net drainage-crossing detector, training, metrics."""

from .metrics import (
    DetectionScores,
    average_precision,
    iou_cxcywh,
    precision_recall,
    score_detections,
)
from .predict import evaluate_detector, predict
from .rcnn import FasterRCNNLite, RCNNConfig, evaluate_rcnn, train_rcnn
from .scan import (
    ScanCoverage,
    ScanDetections,
    ScanSpec,
    SceneDetection,
    SceneDetectionScores,
    evaluate_scene_detections,
    non_max_suppression,
    scan_origins,
    scan_scene,
)
from .sppnet import SPPNetDetector
from .train import EpochStats, TrainConfig, TrainResult, train_detector
from .validate import (
    CrossValidationResult,
    FoldResult,
    kfold_evaluate,
    kfold_indices,
)

__all__ = [
    "SPPNetDetector",
    "iou_cxcywh",
    "precision_recall",
    "average_precision",
    "DetectionScores",
    "score_detections",
    "predict",
    "evaluate_detector",
    "TrainConfig",
    "EpochStats",
    "TrainResult",
    "train_detector",
    "SceneDetection",
    "SceneDetectionScores",
    "ScanCoverage",
    "ScanDetections",
    "ScanSpec",
    "non_max_suppression",
    "scan_origins",
    "scan_scene",
    "evaluate_scene_detections",
    "FoldResult",
    "CrossValidationResult",
    "kfold_indices",
    "kfold_evaluate",
    "RCNNConfig",
    "FasterRCNNLite",
    "train_rcnn",
    "evaluate_rcnn",
]
