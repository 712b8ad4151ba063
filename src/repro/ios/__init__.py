"""repro.ios — Inter-Operator Scheduler (Ding et al., MLSys 2021) rebuilt
on the simulated GPU: DP schedule search, baselines, and measurement."""

from .aot import (
    SchedulerCostRow,
    nimble_style_schedule,
    rammer_style_schedule,
    scheduling_cost_comparison,
)
from .baselines import greedy_schedule, sequential_schedule, single_stage_schedule
from .cost import measure_latency, measure_schedule, schedule_overheads
from .dp import DPScheduler, count_downsets, dp_schedule
from .optimizer import OptimizationResult, compare_strategies, optimize_schedule
from .schedule import Group, Schedule, Stage, groups_from_ops

__all__ = [
    "Group",
    "Stage",
    "Schedule",
    "groups_from_ops",
    "DPScheduler",
    "dp_schedule",
    "count_downsets",
    "sequential_schedule",
    "greedy_schedule",
    "single_stage_schedule",
    "measure_schedule",
    "measure_latency",
    "schedule_overheads",
    "OptimizationResult",
    "optimize_schedule",
    "compare_strategies",
    "rammer_style_schedule",
    "nimble_style_schedule",
    "SchedulerCostRow",
    "scheduling_cost_comparison",
]
