"""End-to-end convenience API: data -> train -> NAS -> IOS -> profile.

``run_pipeline`` strings the whole paper together on a small budget and
returns every intermediate artifact — the programmatic equivalent of the
Figure 5 flow, used by the quickstart example and the end-to-end
integration test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .arch import SPPNetConfig
from .detect import DetectionScores, TrainConfig, evaluate_detector, train_detector
from .geo import ChipDataset, build_dataset
from .gpusim.device import DeviceSpec
from .graph import build_sppnet_graph
from .ios import OptimizationResult, optimize_schedule
from .nas import (
    Experiment,
    RandomStrategy,
    RetryPolicy,
    TrainingEvaluator,
    candidates_from_trials,
    resource_aware_selection,
    sppnet_search_space,
)
from .profiling import ProfileReport, profile_session

__all__ = ["PipelineConfig", "PipelineResult", "run_pipeline"]


@dataclass(frozen=True)
class PipelineConfig:
    """Budget knobs for the end-to-end run (defaults are demo-sized)."""

    num_scenes: int = 1
    chips_per_crossing: int = 2
    data_seed: int = 3
    nas_trials: int = 3
    train_epochs: int = 3
    accuracy_threshold: float = 0.5
    batch: int = 1
    profile_iterations: int = 100
    trial_attempts: int = 3  # retries + quarantine for flaky trial training
    journal_path: str | None = None  # JSONL trial journal (crash resume)
    resume: bool = False  # continue the sweep recorded in journal_path


@dataclass
class PipelineResult:
    """Everything the pipeline produced."""

    dataset: ChipDataset
    trials: list = field(default_factory=list)
    candidates: list[tuple[SPPNetConfig, float]] = field(default_factory=list)
    winner_config: SPPNetConfig | None = None
    winner_scores: DetectionScores | None = None
    winner_model: object | None = None
    schedule_result: OptimizationResult | None = None
    profile: ProfileReport | None = None


def run_pipeline(config: PipelineConfig | None = None,
                 device: DeviceSpec | None = None,
                 verbose: bool = False) -> PipelineResult:
    """Execute the full accuracy-constrained efficiency pipeline."""
    config = config if config is not None else PipelineConfig()
    dataset = build_dataset(
        num_scenes=config.num_scenes,
        chips_per_crossing=config.chips_per_crossing,
        seed=config.data_seed,
    )
    train_set, test_set = dataset.split(0.8, seed=config.data_seed)
    result = PipelineResult(dataset=dataset)

    trained: dict[tuple, DetectionScores] = {}
    models: dict[tuple, object] = {}

    def evaluate(arch: SPPNetConfig) -> dict:
        run = train_detector(
            arch, train_set, test_set,
            TrainConfig(epochs=config.train_epochs, seed=1, verbose=verbose),
        )
        scores = evaluate_detector(run.model, test_set, iou_threshold=0.35)
        trained[(arch.name,)] = scores
        models[(arch.name,)] = run.model
        return {"value": scores.ap, "accuracy": scores.accuracy}

    retry_policy = RetryPolicy(max_attempts=max(1, config.trial_attempts))
    if config.resume:
        if config.journal_path is None:
            raise ValueError("resume=True requires journal_path")
        experiment = Experiment.resume(
            config.journal_path,
            space=sppnet_search_space(),
            evaluator=TrainingEvaluator(evaluate),
            strategy=RandomStrategy(),
            max_trials=config.nas_trials,
            seed=config.data_seed,
            retry_policy=retry_policy,
        )
    else:
        experiment = Experiment(
            space=sppnet_search_space(),
            evaluator=TrainingEvaluator(evaluate),
            strategy=RandomStrategy(),
            max_trials=config.nas_trials,
            seed=config.data_seed,
            retry_policy=retry_policy,
            journal=config.journal_path,
        )
    experiment.run()
    result.trials = list(experiment.trials)
    # quarantined (failed) trials never reach the §5.4 selection step
    result.candidates = candidates_from_trials(experiment.trials)

    winner, _profiles = resource_aware_selection(
        result.candidates, config.accuracy_threshold,
        batch=config.batch, device=device,
    )
    result.winner_config = winner.config
    result.winner_scores = trained.get((winner.config.name,))
    result.winner_model = models.get((winner.config.name,))

    graph = build_sppnet_graph(winner.config)
    result.schedule_result = optimize_schedule(graph, config.batch, device)
    result.profile = profile_session(
        graph, result.schedule_result.optimized, config.batch, device,
        iterations=config.profile_iterations, warmup=2,
    )
    return result

