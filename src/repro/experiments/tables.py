"""Regenerators for the paper's tables (1, 2 and 3).

Each function runs the full measurement pipeline on the simulator /
training substrate and returns an :class:`ExperimentResult` whose rows
mirror the paper's table, with the paper's reported values attached for
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import ClassVar

from ..arch import (
    TABLE1_MODELS,
    TABLE1_PAPER_AP,
    TABLE2_PAPER_LATENCY_MS,
    SPPNetConfig,
)
from ..blas import blas_info
from ..detect import (
    DetectionScores,
    SPPNetDetector,
    TrainConfig,
    predict,
    score_detections,
    train_detector,
)
from ..geo import ChipDataset, build_dataset
from ..gpusim.device import DeviceSpec
from ..graph import build_sppnet_graph
from ..ios import dp_schedule, optimize_schedule
from ..profiling import profile_session
from .results import ExperimentResult

__all__ = ["Table1Settings", "run_table1", "run_table2", "run_table3",
           "DEFAULT_BATCH_SIZES"]

#: The batch sizes the paper sweeps in §6.4 and §7.
DEFAULT_BATCH_SIZES: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)


@dataclass(frozen=True)
class Table1Settings:
    """The one training protocol of the trained artifacts, ``table1`` and
    ``baseline-comparison``: one dataset, one split, one budget.

    ``fast`` trades accuracy for wall-clock (CI-sized); defaults give the
    full benchmark run.  ``iou_threshold`` is the AP matching criterion:
    the paper does not state one, and its related-work baseline reports a
    mean detection IoU of 0.668, so 0.35 is the headline threshold here
    (AP@0.5 is reported alongside in the notes).
    """

    epochs: int = 14
    num_scenes: int = 2
    chips_per_crossing: int = 4
    seed: int = 3
    box_weight: float = 3.0
    iou_threshold: float = 0.35

    #: the seed of every model's initialisation and batch order
    train_seed: ClassVar[int] = 1

    @classmethod
    def fast(cls) -> "Table1Settings":
        return cls(epochs=3, num_scenes=1, chips_per_crossing=2)

    def split(self) -> tuple[ChipDataset, ChipDataset]:
        """The train and test chips every trained artifact sees."""
        dataset = build_dataset(num_scenes=self.num_scenes,
                                chips_per_crossing=self.chips_per_crossing,
                                seed=self.seed)
        return dataset.split(0.8, seed=self.seed)

    def train(self, config: SPPNetConfig, train_set: ChipDataset,
              verbose: bool = False) -> SPPNetDetector:
        """Table 1's ``train_detector`` call, with no test pass."""
        return train_detector(
            config, train_set, None,
            TrainConfig(epochs=self.epochs, seed=self.train_seed,
                        verbose=verbose, box_weight=self.box_weight),
        ).model

    def score(self, model: SPPNetDetector,
              test_set: ChipDataset) -> tuple[DetectionScores, DetectionScores]:
        """One prediction of ``test_set``, scored at ``iou_threshold``
        and at 0.5."""
        confidences, boxes = predict(model, test_set.images)
        return tuple(score_detections(confidences, boxes, test_set.labels,
                                      test_set.boxes, iou_threshold=threshold)
                     for threshold in (self.iou_threshold, 0.5))

    def provenance(self) -> dict:
        """What a trained artifact's bits follow: the BLAS it trained
        under (as the scan journal header records it) and these
        settings with their seeds."""
        return {"blas": {k: v for k, v in blas_info().items() if k != "why"},
                "settings": {**asdict(self), "train_seed": self.train_seed}}


def run_table1(settings: Table1Settings | None = None,
               models: dict[str, SPPNetConfig] | None = None,
               verbose: bool = False) -> ExperimentResult:
    """Table 1: AP of the original SPP-Net and the NAS candidates."""
    settings = settings or Table1Settings()
    models = models or TABLE1_MODELS
    train_set, test_set = settings.split()
    rows: list[list] = []
    strict: list[str] = []
    for name, config in models.items():
        model = settings.train(config, train_set, verbose)
        scores, strict_scores = settings.score(model, test_set)
        rows.append([name, config.grammar(), f"{100 * scores.ap:.2f}%"])
        strict.append(f"{name}: AP@0.5={100 * strict_scores.ap:.2f}%, "
                      f"acc={100 * scores.accuracy:.1f}%")
    paper_rows = [
        [name, models[name].grammar() if name in models else "",
         f"{100 * TABLE1_PAPER_AP[name]:.2f}%"]
        for name in TABLE1_PAPER_AP if name in models
    ]
    return ExperimentResult(
        experiment_id="table1",
        title="Average precision of SPP-Net candidates (synthetic chips, "
              f"{len(train_set)} train / {len(test_set)} test, "
              f"AP@IoU>={settings.iou_threshold})",
        headers=["Model", "Hyper-parameters", "Average Precision"],
        rows=rows,
        paper_reference=paper_rows,
        notes="; ".join(strict),
        provenance=settings.provenance(),
    )


def run_table2(batch: int = 1, device: DeviceSpec | None = None,
               models: dict[str, SPPNetConfig] | None = None) -> ExperimentResult:
    """Table 2: sequential vs IOS-optimized inference latency, batch 1."""
    models = models or TABLE1_MODELS
    rows: list[list] = []
    for name, config in models.items():
        graph = build_sppnet_graph(config)
        result = optimize_schedule(graph, batch, device)
        rows.append([
            name,
            f"{result.sequential_latency_us / 1e3:.3f} ms",
            f"{result.optimized_latency_us / 1e3:.3f} ms",
            f"{result.speedup:.2f}x",
        ])
    paper_rows = [
        [name, f"{seq:.3f} ms", f"{opt:.3f} ms", f"{seq / opt:.2f}x"]
        for name, (seq, opt) in TABLE2_PAPER_LATENCY_MS.items()
        if name in models
    ]
    return ExperimentResult(
        experiment_id="table2",
        title=f"Inference latency, sequential vs IOS-optimized (batch {batch}, "
              "simulated RTX A5500)",
        headers=["Model", "Sequential", "Optimized", "Speedup"],
        rows=rows,
        paper_reference=paper_rows,
        notes="Optimized < sequential for every model, as in the paper. The "
              "paper's cross-model ordering (e.g. SPP-Net #3 slower than its "
              "strict sub-network SPP-Net #2) is not physically reproducible "
              "in a deterministic simulator and is attributed to testbed "
              "measurement variance; see EXPERIMENTS.md.",
    )


def run_table3(batch_sizes: tuple[int, ...] = DEFAULT_BATCH_SIZES,
               device: DeviceSpec | None = None,
               model: SPPNetConfig | None = None,
               iterations: int = 200) -> ExperimentResult:
    """Table 3: GPU kernel time shares (matmul/pooling/conv) per batch size."""
    config = model or TABLE1_MODELS["SPP-Net #2"]
    graph = build_sppnet_graph(config)
    rows: list[list] = []
    for batch in batch_sizes:
        schedule = dp_schedule(graph, batch, device)
        report = profile_session(graph, schedule, batch, device,
                                 iterations=iterations, warmup=5)
        shares = report.table3_row()
        rows.append([
            batch,
            f"{shares['matmul']:.1f}",
            f"{shares['pooling']:.1f}",
            f"{shares['conv']:.1f}",
        ])
    paper_rows = [
        [1, "41.6", "14.1", "7.7"],
        [2, "34.8", "14.4", "9.7"],
        [4, "39.9", "13.5", "9.5"],
        [8, "34.8", "13.7", "10"],
        [16, "18.1", "17.1", "16.6"],
        [32, "15.7", "14.7", "13.4"],
        [64, "7.4", "8.6", "77.2"],
    ]
    return ExperimentResult(
        experiment_id="table3",
        title=f"GPU kernel profiling shares for {config.name} "
              "(percent of kernel time)",
        headers=["Batch Size", "Matrix Multiplication (%)", "Pooling (%)", "Conv (%)"],
        rows=rows,
        paper_reference=paper_rows,
        notes="Shape: matmul share falls with batch (weight streaming "
              "amortizes), conv share rises and dominates at batch 64, "
              "pooling stays comparatively stable.",
    )
