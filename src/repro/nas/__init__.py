"""repro.nas — NNI/Retiarii-style neural architecture search toolkit.

One trial loop, :class:`Experiment`, runs every sweep: its ``workers``
field sets how many trials a synchronous batch evaluates concurrently,
and :meth:`Experiment.resume` continues a journaled sweep at any width.
"""

from ..retry import RetryPolicy
from .constrained import (
    CandidateProfile,
    benchmark_candidates,
    candidates_from_trials,
    constrained_selection,
    resource_aware_selection,
)
from .evaluator import (
    EvaluationResult,
    FunctionalEvaluator,
    TrainingEvaluator,
    measure_latency_ms,
)
from .experiment import Experiment, TrialRecord, run_trial_with_retries
from .journal import TrialJournal
from .pareto import dominates, knee_point, pareto_front
from .space import ModelSpace, ValueChoice, config_from_sample, sppnet_search_space
from .strategy import (
    GreedyBanditStrategy,
    GridSearchStrategy,
    RandomStrategy,
    RegularizedEvolution,
)

__all__ = [
    "ValueChoice",
    "ModelSpace",
    "sppnet_search_space",
    "config_from_sample",
    "EvaluationResult",
    "FunctionalEvaluator",
    "TrainingEvaluator",
    "measure_latency_ms",
    "TrialRecord",
    "Experiment",
    "RetryPolicy",
    "TrialJournal",
    "run_trial_with_retries",
    "RandomStrategy",
    "GridSearchStrategy",
    "RegularizedEvolution",
    "GreedyBanditStrategy",
    "CandidateProfile",
    "benchmark_candidates",
    "candidates_from_trials",
    "constrained_selection",
    "resource_aware_selection",
    "dominates",
    "pareto_front",
    "knee_point",
]
