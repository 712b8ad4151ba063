"""Ablation experiments for the design choices DESIGN.md calls out.

A1 — scheduler: IOS DP vs greedy / single-stage / sequential, on the
     SPP-Net graphs and on an Inception-style block where the DP's
     parallel grouping strictly wins.
A2 — SPP layer: branched pyramid pooling vs a single fixed adaptive pool
     (latency via IOS; optional accuracy via real training).
A3 — exploration strategy: random (paper) vs grid / evolution / bandit,
     trials-to-threshold on a deterministic surrogate objective.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..arch import TABLE1_MODELS, SPPNetConfig
from ..gpusim.device import DeviceSpec
from ..graph import build_inception_graph, build_sppnet_graph
from ..ios import compare_strategies, optimize_schedule
from ..nas import (
    Experiment,
    FunctionalEvaluator,
    GreedyBanditStrategy,
    GridSearchStrategy,
    RandomStrategy,
    RegularizedEvolution,
    sppnet_search_space,
)
from .results import ExperimentResult

__all__ = ["run_ablation_scheduler", "run_ablation_spp", "run_ablation_strategy",
           "run_ablation_scheduling_cost", "surrogate_accuracy"]


def run_ablation_scheduler(batch: int = 1,
                           device: DeviceSpec | None = None) -> ExperimentResult:
    """A1: scheduling strategies across workloads."""
    workloads = {
        "SPP-Net #2": build_sppnet_graph(TABLE1_MODELS["SPP-Net #2"]),
        "inception(4x2)": build_inception_graph(branches=4, depth=2),
        "inception(6x1)": build_inception_graph(branches=6, depth=1,
                                                name="inception-6x1"),
    }
    rows: list[list] = []
    for name, graph in workloads.items():
        schedules = compare_strategies(graph, batch, device)
        dp = schedules["ios-dp"].latency_us
        rows.append([
            name,
            *(f"{schedules[k].latency_us:.1f}" for k in
              ("sequential", "greedy", "single-stage", "ios-dp")),
            f"{schedules['sequential'].latency_us / dp:.2f}x",
        ])
    return ExperimentResult(
        experiment_id="ablation-scheduler",
        title=f"Scheduler ablation: stage latency (us) at batch {batch}",
        headers=["Workload", "sequential", "greedy", "single-stage", "ios-dp",
                 "DP speedup"],
        rows=rows,
        notes="On the linear-ish SPP-Net, merging stages (sync elimination) "
              "is the whole win, so single-stage matches DP; on branched "
              "blocks with occupancy-limited kernels, only the DP finds the "
              "parallel grouping and strictly beats every baseline.",
    )


def run_ablation_spp(batch: int = 1, device: DeviceSpec | None = None,
                     input_size: int = 100) -> ExperimentResult:
    """A2: SPP pyramid vs single fixed pooling level (latency, params)."""
    base = TABLE1_MODELS["SPP-Net #2"]
    variants: dict[str, SPPNetConfig] = {
        "SPP (5,2,1)": base,
        "SPP (4,2,1)": replace(base, spp_levels=(4, 2, 1), name="SPP-421"),
        "single pool 5": replace(base, spp_levels=(5,), name="single-5"),
        "single pool 1 (GAP)": replace(base, spp_levels=(1,), name="single-1"),
    }
    rows: list[list] = []
    for name, config in variants.items():
        graph = build_sppnet_graph(config, input_size=input_size)
        result = optimize_schedule(graph, batch, device)
        rows.append([
            name,
            config.spp_features,
            f"{result.sequential_latency_us / 1e3:.3f} ms",
            f"{result.optimized_latency_us / 1e3:.3f} ms",
            f"{result.speedup:.2f}x",
        ])
    return ExperimentResult(
        experiment_id="ablation-spp",
        title=f"SPP-layer ablation at batch {batch} (input {input_size}px)",
        headers=["Pooling", "SPP features", "Sequential", "Optimized", "Speedup"],
        rows=rows,
        notes="The pyramid adds little latency over a single level (branches "
              "overlap and the FC input grows sublinearly), while providing "
              "the multi-scale features the accuracy results rely on; a "
              "global average pool (level 1) collapses localization ability.",
    )


def surrogate_accuracy(sample: dict) -> float:
    """Deterministic surrogate of Table 1's accuracy landscape.

    Peaks at the paper's best found configuration (kernel 3, SPP level 5,
    FC 2048) with smooth falloff — used to compare exploration strategies
    without paying full training per trial.  The functional form is a
    documented surrogate, not a claim about real accuracies.
    """
    k = sample["first_kernel"]
    spp = sample["spp_first_level"]
    fc = sample["fc_width"]
    score = 0.95
    score += {1: -0.03, 3: 0.012, 5: 0.006, 7: -0.004, 9: -0.012}[k]
    score += 0.004 * (spp - 1) / 4
    score -= 0.004 * abs(np.log2(fc / 2048))
    return float(score)


def run_ablation_scheduling_cost(batch: int = 1,
                                 device: DeviceSpec | None = None
                                 ) -> ExperimentResult:
    """Extension: §8.3's scheduling-cost vs schedule-quality trade-off."""
    from ..ios import scheduling_cost_comparison

    graph = build_inception_graph(branches=4, depth=2)
    rows = [
        [r.strategy, f"{r.scheduling_ms:.2f}", f"{r.latency_us:.1f}", r.num_stages]
        for r in scheduling_cost_comparison(graph, batch, device)
    ]
    return ExperimentResult(
        experiment_id="ablation-scheduling-cost",
        title=f"Scheduling cost vs schedule quality (inception 4x2, batch {batch})",
        headers=["Scheduler", "Scheduling time (ms)", "Schedule latency (us)",
                 "Stages"],
        rows=rows,
        notes="The §8.3 trade-off: Rammer/Nimble-style static scheduling is "
              "orders of magnitude cheaper to produce but the IOS DP finds "
              "strictly faster schedules — the reason the paper picks IOS "
              "('our task requires the best possible schedules, even at the "
              "computational cost of generating them').",
    )


def run_ablation_strategy(threshold: float = 0.962, max_trials: int = 60,
                          seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
                          ) -> ExperimentResult:
    """A3: trials-to-threshold per exploration strategy on the surrogate."""
    strategies = {
        "random (paper)": RandomStrategy,
        "grid": GridSearchStrategy,
        "evolution": lambda: RegularizedEvolution(population=12, sample_size=3),
        "bandit": lambda: GreedyBanditStrategy(epsilon=0.3),
    }
    rows: list[list] = []
    for name, factory in strategies.items():
        trials_needed: list[int] = []
        best_values: list[float] = []
        for seed in seeds:
            exp = Experiment(
                space=sppnet_search_space(),
                evaluator=FunctionalEvaluator(surrogate_accuracy),
                strategy=factory(),
                max_trials=max_trials,
                seed=seed,
            )
            exp.run()
            best_values.append(exp.best().value)
            hit = next((t.trial_id + 1 for t in exp.trials if t.value > threshold),
                       max_trials)
            trials_needed.append(hit)
        rows.append([
            name,
            f"{np.mean(trials_needed):.1f}",
            f"{max(trials_needed)}",
            f"{np.mean(best_values):.4f}",
        ])
    return ExperimentResult(
        experiment_id="ablation-strategy",
        title=f"NAS strategy ablation: trials to exceed surrogate accuracy "
              f"{threshold} (budget {max_trials}, {len(seeds)} seeds)",
        headers=["Strategy", "Mean trials to threshold", "Worst case",
                 "Mean best value"],
        rows=rows,
        notes="Random search (the paper's choice) is competitive on this "
              "small 175-point space; informed strategies shine mainly in "
              "worst-case trials-to-threshold.",
    )
