"""Concurrent trial dispatch: ``Experiment(workers=N)``."""

import threading
import time

import pytest

from repro.experiments.ablations import surrogate_accuracy
from repro.nas import (
    Experiment,
    FunctionalEvaluator,
    GreedyBanditStrategy,
    ModelSpace,
    RandomStrategy,
    ValueChoice,
    sppnet_search_space,
)


def slow_evaluator(delay=0.05):
    concurrency = {"active": 0, "max": 0}
    lock = threading.Lock()

    def fn(sample):
        with lock:
            concurrency["active"] += 1
            concurrency["max"] = max(concurrency["max"], concurrency["active"])
        time.sleep(delay)
        with lock:
            concurrency["active"] -= 1
        return sample["spp_first_level"] / 5

    return FunctionalEvaluator(fn), concurrency


class TestParallelExperiment:
    def test_runs_budget_with_unique_trials(self):
        evaluator, _ = slow_evaluator(0.0)
        exp = Experiment(sppnet_search_space(), evaluator,
                         max_trials=12, workers=4, seed=0)
        trials = exp.run()
        assert len(trials) == 12
        encodings = {ModelSpace.encode(t.sample) for t in trials}
        assert len(encodings) == 12

    def test_actually_concurrent(self):
        evaluator, concurrency = slow_evaluator(0.05)
        exp = Experiment(sppnet_search_space(), evaluator,
                         max_trials=8, workers=4, seed=0)
        exp.run()
        assert concurrency["max"] >= 2

    def test_matches_sequential_random_exploration(self):
        """Same strategy+seed explores the same architectures in the same
        order: the proposal stream does not depend on ``workers``."""
        def value(sample):
            return sample["fc_width"] / 8192

        seq = Experiment(sppnet_search_space(), FunctionalEvaluator(value),
                         RandomStrategy(), max_trials=10, seed=5)
        seq.run()
        par = Experiment(sppnet_search_space(), FunctionalEvaluator(value),
                         RandomStrategy(), max_trials=10, seed=5, workers=3)
        par.run()
        assert ([ModelSpace.encode(t.sample) for t in seq.trials]
                == [ModelSpace.encode(t.sample) for t in par.trials])
        assert [t.trial_id for t in par.trials] == list(range(10))

    def test_space_exhaustion_stops(self):
        space = ModelSpace([ValueChoice("a", (1, 2, 3))])
        exp = Experiment(space, FunctionalEvaluator(lambda s: s["a"]),
                         max_trials=10, workers=2, seed=0)
        trials = exp.run()
        assert len(trials) == 3

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_greedy_bandit_spends_the_whole_budget(self, workers, seed):
        """A greedy strategy keeps re-proposing its favourite; past
        ``dedup_patience`` draws the duplicate is evaluated, so the sweep
        records its whole budget on a space far from exhausted."""
        exp = Experiment(sppnet_search_space(),
                         FunctionalEvaluator(surrogate_accuracy),
                         GreedyBanditStrategy(epsilon=0.05), max_trials=60,
                         seed=seed, workers=workers)
        assert len(exp.run()) == 60

    def test_best(self):
        exp = Experiment(
            sppnet_search_space(),
            FunctionalEvaluator(lambda s: s["fc_width"]),
            max_trials=6, workers=3, seed=0,
        )
        exp.run()
        assert exp.best().value == max(t.value for t in exp.trials)

    def test_worker_validation(self):
        with pytest.raises(ValueError):
            Experiment(sppnet_search_space(),
                       FunctionalEvaluator(lambda s: 0.0), workers=0)
