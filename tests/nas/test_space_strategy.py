"""Search space, strategies, and experiment driver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import TABLE1_MODELS
from repro.nas import (
    Experiment,
    FunctionalEvaluator,
    GreedyBanditStrategy,
    GridSearchStrategy,
    ModelSpace,
    RandomStrategy,
    RegularizedEvolution,
    TrainingEvaluator,
    ValueChoice,
    config_from_sample,
    sppnet_search_space,
)

settings.register_profile("nas", deadline=None, max_examples=30)
settings.load_profile("nas")


class TestSpace:
    def test_paper_space_size(self):
        # 5 kernels x 5 SPP levels x 7 FC widths = 175 architectures
        assert sppnet_search_space().size == 175
        assert sppnet_search_space(include_second_fc=True).size == 175 * 7

    def test_sample_valid(self):
        space = sppnet_search_space()
        sample = space.sample(np.random.default_rng(0))
        space.validate(sample)

    def test_grid_enumerates_everything(self):
        space = sppnet_search_space()
        points = list(space.grid())
        assert len(points) == space.size
        assert len({ModelSpace.encode(p) for p in points}) == space.size

    def test_mutate_changes_exactly_one(self):
        space = sppnet_search_space()
        rng = np.random.default_rng(1)
        sample = space.sample(rng)
        mutated = space.mutate(sample, rng)
        diffs = [k for k in sample if sample[k] != mutated[k]]
        assert len(diffs) == 1

    def test_validate_rejects_bad_values(self):
        space = sppnet_search_space()
        with pytest.raises(ValueError):
            space.validate({"first_kernel": 2, "spp_first_level": 1, "fc_width": 128})
        with pytest.raises(KeyError):
            space.validate({"first_kernel": 3})

    def test_choice_validation(self):
        with pytest.raises(ValueError):
            ValueChoice("x", ())
        with pytest.raises(ValueError):
            ValueChoice("x", (1, 1))
        with pytest.raises(ValueError):
            ModelSpace([])


class TestConfigFromSample:
    def test_table1_members_reachable(self):
        """Every Table 1 candidate is a point of the §4.2 search space."""
        for name, cfg in TABLE1_MODELS.items():
            sample = {
                "first_kernel": cfg.convs[0].kernel,
                "spp_first_level": cfg.spp_levels[0],
                "fc_width": cfg.fc_sizes[0],
            }
            rebuilt = config_from_sample(sample)
            assert rebuilt.convs == cfg.convs
            assert rebuilt.spp_levels == cfg.spp_levels
            assert rebuilt.fc_sizes == cfg.fc_sizes

    def test_degenerate_pyramids(self):
        assert config_from_sample(
            {"first_kernel": 3, "spp_first_level": 1, "fc_width": 128}
        ).spp_levels == (1,)
        assert config_from_sample(
            {"first_kernel": 3, "spp_first_level": 2, "fc_width": 128}
        ).spp_levels == (2, 1)

    def test_second_fc(self):
        cfg = config_from_sample({"first_kernel": 3, "spp_first_level": 4,
                                  "fc_width": 512, "fc2_width": 256})
        assert cfg.fc_sizes == (512, 256)

    @given(st.integers(0, 2**31 - 1))
    def test_every_sample_buildable(self, seed):
        space = sppnet_search_space()
        sample = space.sample(np.random.default_rng(seed))
        cfg = config_from_sample(sample)
        assert cfg.min_input_size() <= 100  # paper chips always valid


class TestStrategies:
    def _history(self, space, n, seed=0):
        evaluator = FunctionalEvaluator(lambda s: s["spp_first_level"] / 5)
        exp = Experiment(space, evaluator, RandomStrategy(), max_trials=n, seed=seed)
        exp.run()
        return exp.trials

    def test_random_deterministic_per_seed(self):
        space = sppnet_search_space()
        rng1, rng2 = np.random.default_rng(3), np.random.default_rng(3)
        s = RandomStrategy()
        assert s.propose(space, [], rng1) == s.propose(space, [], rng2)

    def test_grid_proposes_untried(self):
        space = sppnet_search_space()
        history = self._history(space, 5)
        tried = {ModelSpace.encode(t.sample) for t in history}
        proposal = GridSearchStrategy().propose(space, history, np.random.default_rng(0))
        assert ModelSpace.encode(proposal) not in tried

    def test_evolution_warmup_then_mutates(self):
        space = sppnet_search_space()
        strat = RegularizedEvolution(population=4, sample_size=2)
        rng = np.random.default_rng(0)
        assert strat.propose(space, [], rng)  # random during warmup
        history = self._history(space, 8)
        child = strat.propose(space, history, rng)
        space.validate(child)

    def test_bandit_exploits_best_value(self):
        space = sppnet_search_space()
        history = self._history(space, 30)
        strat = GreedyBanditStrategy(epsilon=0.0)
        proposal = strat.propose(space, history, np.random.default_rng(0))
        space.validate(proposal)
        # objective only rewards spp level; exploit should pick a top level
        seen_levels = {t.sample["spp_first_level"] for t in history}
        assert proposal["spp_first_level"] == max(seen_levels)

    def test_strategy_param_validation(self):
        with pytest.raises(ValueError):
            RegularizedEvolution(population=1)
        with pytest.raises(ValueError):
            GreedyBanditStrategy(epsilon=2.0)


class TestExperiment:
    def test_runs_budget(self):
        exp = Experiment(sppnet_search_space(),
                         FunctionalEvaluator(lambda s: 0.5),
                         max_trials=7, seed=0)
        trials = exp.run()
        assert len(trials) == 7
        assert [t.trial_id for t in trials] == list(range(7))

    def test_deduplication(self):
        space = ModelSpace([ValueChoice("a", (1, 2, 3))])
        exp = Experiment(space, FunctionalEvaluator(lambda s: s["a"]),
                         max_trials=10, seed=0)
        exp.run()
        encodings = [ModelSpace.encode(t.sample) for t in exp.trials]
        assert len(set(encodings)) == len(encodings)
        assert len(exp.trials) == 3  # space exhausted

    def test_best_and_topk(self):
        exp = Experiment(sppnet_search_space(),
                         FunctionalEvaluator(lambda s: s["fc_width"]),
                         max_trials=10, seed=1)
        exp.run()
        assert exp.best().value == max(t.value for t in exp.trials)
        top = exp.top_k(3)
        assert top[0].value >= top[1].value >= top[2].value

    def test_above_threshold(self):
        exp = Experiment(sppnet_search_space(),
                         FunctionalEvaluator(lambda s: s["spp_first_level"] / 5),
                         max_trials=12, seed=0)
        exp.run()
        for t in exp.above_threshold(0.5):
            assert t.value > 0.5

    def test_results_table_sorted(self):
        exp = Experiment(sppnet_search_space(),
                         FunctionalEvaluator(lambda s: s["fc_width"] / 8192),
                         max_trials=5, seed=0)
        exp.run()
        table = exp.results_table()
        assert "first_kernel" in table
        assert len(table.splitlines()) == 2 + 5

    def test_metrics_recorded(self):
        exp = Experiment(sppnet_search_space(),
                         FunctionalEvaluator(lambda s: {"value": 0.9, "loss": 0.1}),
                         max_trials=2, seed=0)
        exp.run()
        assert exp.trials[0].metric("loss") == 0.1

    def test_evaluator_without_value_key_is_quarantined(self):
        from repro.nas import RetryPolicy

        exp = Experiment(sppnet_search_space(),
                         FunctionalEvaluator(lambda s: {"oops": 1.0}),
                         max_trials=1, seed=0,
                         retry_policy=RetryPolicy(max_attempts=1))
        exp.run()  # the broken evaluator no longer kills the sweep
        assert len(exp.trials) == 1
        assert not exp.trials[0].ok
        assert "ValueError" in exp.trials[0].error
        with pytest.raises(RuntimeError):
            exp.best()

    def test_training_evaluator_decodes_config(self):
        captured = []

        def train_fn(cfg):
            captured.append(cfg)
            return 0.5

        evaluator = TrainingEvaluator(train_fn)
        evaluator.evaluate({"first_kernel": 5, "spp_first_level": 3, "fc_width": 256})
        assert captured[0].convs[0].kernel == 5
