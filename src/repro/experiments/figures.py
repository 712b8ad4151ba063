"""Regenerators for the paper's figures (5, 6, 7, 8) as data series.

Each figure becomes a table of the series the paper plots, plus the
qualitative checks the paper derives from it (optimal batch size,
memory far below capacity, API-share crossover).
"""

from __future__ import annotations

from ..arch import TABLE1_MODELS, TABLE1_PAPER_AP, SPPNetConfig
from ..gpusim.device import DeviceSpec
from ..graph import build_sppnet_graph
from ..ios import dp_schedule, measure_latency, sequential_schedule
from ..nas import resource_aware_selection
from ..profiling import profile_session
from .results import ExperimentResult
from .tables import DEFAULT_BATCH_SIZES

__all__ = ["run_fig6", "run_fig7", "run_fig8", "run_constrained_selection",
           "select_optimal_batch", "run_input_size_sweep", "run_pareto_front"]


def select_optimal_batch(efficiencies: dict[int, float],
                         min_gain: float = 0.10) -> int:
    """The paper's §6.4 rule: batching gains diminish, pick the last batch
    size whose efficiency improves on the previous one by >= ``min_gain``."""
    batches = sorted(efficiencies)
    chosen = batches[0]
    for prev, cur in zip(batches, batches[1:]):
        gain = (efficiencies[prev] - efficiencies[cur]) / efficiencies[prev]
        if gain >= min_gain:
            chosen = cur
        else:
            break
    return chosen


def run_fig6(batch_sizes: tuple[int, ...] = DEFAULT_BATCH_SIZES,
             device: DeviceSpec | None = None,
             model: SPPNetConfig | None = None) -> ExperimentResult:
    """Figure 6: inference efficiency (latency/batch) vs batch size."""
    config = model or TABLE1_MODELS["SPP-Net #2"]
    graph = build_sppnet_graph(config)
    rows: list[list] = []
    optimized_eff: dict[int, float] = {}
    for batch in batch_sizes:
        seq = measure_latency(graph, sequential_schedule(graph, batch), device)
        opt = measure_latency(graph, dp_schedule(graph, batch, device), device)
        optimized_eff[batch] = opt / batch
        rows.append([
            batch,
            f"{seq / batch:.1f}",
            f"{opt / batch:.1f}",
            f"{seq / opt:.2f}x",
        ])
    optimal = select_optimal_batch(optimized_eff)
    return ExperimentResult(
        experiment_id="fig6",
        title=f"Inference efficiency vs batch size for {config.name} "
              "(us per image; lower is better)",
        headers=["Batch", "Sequential (us/img)", "Optimized (us/img)", "IOS speedup"],
        rows=rows,
        notes=f"Diminishing gains with batch; selected optimal batch size = "
              f"{optimal} (paper selects 32). IOS speedup shrinks as kernels "
              "saturate the device.",
    )


def run_fig7(batch_sizes: tuple[int, ...] = DEFAULT_BATCH_SIZES,
             device: DeviceSpec | None = None,
             model: SPPNetConfig | None = None,
             iterations: int = 200) -> ExperimentResult:
    """Figure 7: GPU memops timing and memory headroom vs batch size."""
    config = model or TABLE1_MODELS["SPP-Net #2"]
    graph = build_sppnet_graph(config)
    rows: list[list] = []
    for batch in batch_sizes:
        schedule = dp_schedule(graph, batch, device)
        report = profile_session(graph, schedule, batch, device,
                                 iterations=iterations, warmup=5)
        rows.append([
            batch,
            f"{report.memops.per_image_ns:.0f}",
            f"{report.peak_memory_bytes / 1024**2:.0f}",
            f"{100 * report.memory_utilization:.2f}%",
        ])
    return ExperimentResult(
        experiment_id="fig7",
        title=f"GPU memops timing per inferred image for {config.name} "
              "(simulated RTX A5500, 24 GB)",
        headers=["Batch", "Memops timing (ns/img)", "Peak memory (MiB)",
                 "Capacity used"],
        rows=rows,
        notes="Per-image memop timing falls as per-transfer overhead "
              "amortizes and stabilizes past batch ~16 (paper: stabilizes at "
              "19168 ns); memory stays far below the 24 GB capacity even at "
              "batch 64, so memory does not constrain inference.",
    )


def run_fig8(batch_sizes: tuple[int, ...] = DEFAULT_BATCH_SIZES,
             device: DeviceSpec | None = None,
             model: SPPNetConfig | None = None,
             iterations: int = 1000) -> ExperimentResult:
    """Figure 8: CUDA API time shares vs batch size."""
    config = model or TABLE1_MODELS["SPP-Net #2"]
    graph = build_sppnet_graph(config)
    rows: list[list] = []
    for batch in batch_sizes:
        schedule = dp_schedule(graph, batch, device)
        report = profile_session(graph, schedule, batch, device,
                                 iterations=iterations, warmup=5)
        rows.append([
            batch,
            f"{100 * report.api_share('cuLibraryLoadData'):.1f}",
            f"{100 * report.api_share('cudaDeviceSynchronize'):.1f}",
            f"{100 * report.api_share('cudaMemcpyAsync'):.1f}",
            f"{100 * report.api_share('cudaLaunchKernel'):.1f}",
        ])
    return ExperimentResult(
        experiment_id="fig8",
        title=f"CUDA API usage shares vs batch size for {config.name} "
              f"({iterations}-iteration profiled session)",
        headers=["Batch", "cuLibraryLoadData (%)", "cudaDeviceSynchronize (%)",
                 "cudaMemcpyAsync (%)", "cudaLaunchKernel (%)"],
        rows=rows,
        notes="cuLibraryLoadData dominates at batch 1 (paper: ~80%) and "
              "cudaDeviceSynchronize grows with batch until it surpasses it "
              "(paper: 45.4% at batch 64) as synchronization drains ever "
              "larger in-flight work.",
    )


def run_input_size_sweep(
    input_sizes: tuple[int, ...] = (100, 200, 400, 800),
    batch: int = 1,
    device: DeviceSpec | None = None,
    model: SPPNetConfig | None = None,
) -> ExperimentResult:
    """§5.1's motivation: variable-sized inputs and their latency load.

    SPP-Net accepts any input size; latency grows superlinearly with it
    (conv work is quadratic in edge length), which is exactly why the
    paper pairs SPP-Net with inference-efficiency optimization.  IOS is
    re-run per size, as it is per batch in the paper.
    """
    config = model or TABLE1_MODELS["SPP-Net #2"]
    rows: list[list] = []
    for size in input_sizes:
        graph = build_sppnet_graph(config, input_size=size)
        seq = measure_latency(graph, sequential_schedule(graph, batch), device)
        opt = measure_latency(graph, dp_schedule(graph, batch, device), device)
        rows.append([
            f"{size}x{size}",
            f"{seq / 1e3:.3f} ms",
            f"{opt / 1e3:.3f} ms",
            f"{seq / opt:.2f}x",
        ])
    return ExperimentResult(
        experiment_id="input-size-sweep",
        title=f"Latency vs input size for {config.name} (batch {batch}); "
              "the SPP layer keeps the FC head fixed-size throughout",
        headers=["Input", "Sequential", "Optimized", "IOS speedup"],
        rows=rows,
        notes="Latency grows ~quadratically with image edge length while "
              "the SPP output (and thus the FC head) stays constant — the "
              "§5.1 motivation for accuracy-constrained efficiency "
              "optimization on large-scene inference.",
    )


def run_pareto_front(
    measured_ap: dict[str, float] | None = None,
    batch: int = 1,
    device: DeviceSpec | None = None,
) -> ExperimentResult:
    """Extension: the §5.4 dual objective as an explicit Pareto front."""
    from ..nas import benchmark_candidates, knee_point, pareto_front

    aps = measured_ap or TABLE1_PAPER_AP
    candidates = [(cfg, aps[name]) for name, cfg in TABLE1_MODELS.items()
                  if name in aps]
    profiles = benchmark_candidates(candidates, batch=batch, device=device)
    front = pareto_front(profiles)
    front_names = {p.config.name for p in front}
    knee = knee_point(front).config.name
    rows = [
        [
            p.config.name,
            f"{100 * p.accuracy:.2f}%",
            f"{p.efficiency:.0f} img/s",
            ("pareto" if p.config.name in front_names else "dominated")
            + (" (knee)" if p.config.name == knee else ""),
        ]
        for p in sorted(profiles, key=lambda p: -p.efficiency)
    ]
    return ExperimentResult(
        experiment_id="pareto-front",
        title=f"Accuracy-efficiency Pareto front of the Table 1 candidates "
              f"(batch {batch})",
        headers=["Model", "Accuracy", "Efficiency", "Status"],
        rows=rows,
        notes="Every §5.4 threshold A selects a point on this front; the "
              "knee is the threshold-free default. With the paper's APs, "
              "SPP-Net #2 is dominated by #3 (more accurate AND faster in "
              "the deterministic simulator).",
    )


def run_constrained_selection(
    accuracy_threshold: float = 0.965,
    measured_ap: dict[str, float] | None = None,
    batch: int = 1,
    device: DeviceSpec | None = None,
) -> ExperimentResult:
    """§5.4 / Figure 5: maximize efficiency subject to accuracy > A.

    ``measured_ap`` may carry this run's Table 1 APs; when omitted, the
    paper's reported APs are used so the selection logic can be exercised
    stand-alone.
    """
    aps = measured_ap or TABLE1_PAPER_AP
    candidates = [(cfg, aps[name]) for name, cfg in TABLE1_MODELS.items()
                  if name in aps]
    winner, profiles = resource_aware_selection(
        candidates, accuracy_threshold, batch=batch, device=device
    )
    rows = [
        [
            p.config.name,
            f"{100 * p.accuracy:.2f}%",
            "yes" if p.accuracy > accuracy_threshold else "no",
            f"{p.optimized_latency_us / 1e3:.3f} ms",
            f"{p.efficiency:.0f} img/s",
            "<- selected" if p.config.name == winner.config.name else "",
        ]
        for p in profiles
    ]
    return ExperimentResult(
        experiment_id="fig5",
        title=f"Accuracy-constrained efficiency optimization (A = "
              f"{accuracy_threshold:.3f}, batch {batch})",
        headers=["Model", "Accuracy", "a(n) > A", "IOS latency", "Efficiency", ""],
        rows=rows,
        notes="maximize e(n) s.t. a(n) > A over the NAS candidates; the "
              "paper selects SPP-Net #2. With paper APs and threshold "
              "0.965, feasible = {#2, #3}; our simulator ranks #3 (strictly "
              "smaller FC) faster — see EXPERIMENTS.md discussion.",
    )
