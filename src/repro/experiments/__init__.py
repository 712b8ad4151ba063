"""repro.experiments — per-table/figure regenerators and the CLI."""

from .ablations import (
    run_ablation_scheduler,
    run_ablation_scheduling_cost,
    run_ablation_spp,
    run_ablation_strategy,
    surrogate_accuracy,
)
from .baseline import run_baseline_comparison
from .figures import (
    run_constrained_selection,
    run_fig6,
    run_fig7,
    run_fig8,
    run_input_size_sweep,
    run_pareto_front,
    select_optimal_batch,
)
from .results import ExperimentResult, format_table
from .tables import DEFAULT_BATCH_SIZES, Table1Settings, run_table1, run_table2, run_table3

__all__ = [
    "ExperimentResult",
    "format_table",
    "DEFAULT_BATCH_SIZES",
    "Table1Settings",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_constrained_selection",
    "select_optimal_batch",
    "run_input_size_sweep",
    "run_pareto_front",
    "run_baseline_comparison",
    "run_ablation_scheduler",
    "run_ablation_scheduling_cost",
    "run_ablation_spp",
    "run_ablation_strategy",
    "surrogate_accuracy",
]
