"""Related-work baseline comparison (§8.1).

Trains the paper's SPP-Net next to the faster-R-CNN-style baseline on the
same synthetic chips and compares detection quality — the reproduction of
the paper's implicit claim that the SPP-Net approach outperforms the
faster R-CNN applied to the same watershed by Li et al. (reported there:
accuracy 0.882, mean box IoU 0.668).
"""

from __future__ import annotations

from ..arch import TABLE1_MODELS
from ..detect import RCNNConfig, evaluate_rcnn, train_rcnn
from .results import ExperimentResult
from .tables import Table1Settings

__all__ = ["run_baseline_comparison"]


def run_baseline_comparison(settings: Table1Settings | None = None,
                            verbose: bool = False) -> ExperimentResult:
    """Train FasterRCNNLite on Table 1's split for Table 1's ``epochs``
    and compare it with Table 1's SPP-Net #2, trained and scored by
    Table 1's protocol, so that row is Table 1's #2 row."""
    settings = settings or Table1Settings()
    train_set, test_set = settings.split()
    spp = settings.train(TABLE1_MODELS["SPP-Net #2"], train_set, verbose)
    spp_scores, _ = settings.score(spp, test_set)

    rcnn_model = train_rcnn(
        train_set, RCNNConfig(), epochs=settings.epochs,
        learning_rate=0.01, seed=settings.train_seed, verbose=verbose,
    )
    rcnn_scores = evaluate_rcnn(rcnn_model, test_set,
                                iou_threshold=settings.iou_threshold)

    rows = [
        [
            "SPP-Net #2 (this paper)",
            f"{100 * spp_scores.ap:.2f}%",
            f"{100 * spp_scores.accuracy:.1f}%",
            f"{spp_scores.mean_iou_tp:.3f}",
            spp.num_parameters(),
        ],
        [
            "FasterRCNNLite (related work)",
            f"{100 * rcnn_scores.ap:.2f}%",
            f"{100 * rcnn_scores.accuracy:.1f}%",
            f"{rcnn_scores.mean_iou_tp:.3f}",
            rcnn_model.num_parameters(),
        ],
    ]
    return ExperimentResult(
        experiment_id="baseline-comparison",
        title=f"SPP-Net vs faster-R-CNN-style baseline "
              f"(AP@IoU>={settings.iou_threshold}, same chips/split)",
        headers=["Detector", "AP", "Accuracy", "Mean IoU (TP)", "Parameters"],
        rows=rows,
        paper_reference=[
            ["SPP-Net (paper Table 1, best)", "97.40%", "-", "-", "-"],
            ["faster R-CNN (Li et al., §8.1)", "-", "88.2%", "0.668", "-"],
        ],
        notes="The related work reports classification accuracy and box "
              "IoU rather than AP; both detectors here see Table 1's chips, "
              "split and epochs, and the SPP-Net row is Table 1's #2 row.",
        provenance=settings.provenance(),
    )
