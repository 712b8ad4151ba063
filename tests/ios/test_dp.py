"""IOS dynamic program: validity, optimality vs brute force, behavior."""

import numpy as np
import pytest

from repro.arch import TABLE1_MODELS
from repro.graph import Graph, Operator, OpType, build_inception_graph, build_sppnet_graph
from repro.gpusim import validate_stages
from repro.gpusim.executor import plan_stage
from repro.ios import (
    DPScheduler,
    compare_strategies,
    count_downsets,
    dp_schedule,
    greedy_schedule,
    measure_latency,
    sequential_schedule,
    single_stage_schedule,
)


def random_dag(num_nodes: int, seed: int, edge_prob: float = 0.4) -> Graph:
    """Random layered DAG of RELU ops with one input."""
    rng = np.random.default_rng(seed)
    g = Graph(f"rand{seed}")
    g.add(Operator("in", OpType.INPUT, out_shape=(64, 16, 16)))
    names = []
    for i in range(num_nodes):
        deps = [n for n in names if rng.random() < edge_prob]
        if not deps:
            deps = ["in"]
        # Vary op weight via output channels so costs differ.
        channels = int(rng.integers(8, 256))
        g.add(Operator(f"n{i}", OpType.RELU, tuple(deps), (channels, 16, 16)))
        names.append(f"n{i}")
    g.validate()
    return g


def brute_force_best(graph: Graph, batch: int) -> float:
    """Minimum DP objective over ALL valid stage partitions (small graphs)."""
    scheduler = DPScheduler(graph, batch)
    n = scheduler._n
    specs = scheduler._specs
    best = [float("inf")]

    def rec(remaining: int, acc: float) -> None:
        if acc >= best[0]:
            return
        if remaining == 0:
            best[0] = min(best[0], acc)
            return
        for stage_mask in scheduler._downsets(remaining):
            cost = scheduler.stage_cost(stage_mask)
            rec(remaining & ~stage_mask, acc + cost)

    rec((1 << n) - 1, 0.0)
    return best[0]


class TestDPValidity:
    @pytest.mark.parametrize("model", list(TABLE1_MODELS))
    def test_schedule_valid_for_all_models(self, model):
        graph = build_sppnet_graph(TABLE1_MODELS[model])
        sched = dp_schedule(graph, 1)
        validate_stages(graph, sched.stage_groups())

    @pytest.mark.parametrize("batch", [1, 8, 64])
    def test_schedule_valid_across_batches(self, batch):
        graph = build_sppnet_graph(TABLE1_MODELS["SPP-Net #2"])
        sched = dp_schedule(graph, batch)
        validate_stages(graph, sched.stage_groups())

    @pytest.mark.parametrize("seed", range(6))
    def test_schedule_valid_on_random_dags(self, seed):
        graph = random_dag(7, seed)
        sched = dp_schedule(graph, 1)
        validate_stages(graph, sched.stage_groups())


class TestDPOptimality:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force_on_random_dags(self, seed):
        graph = random_dag(8, seed)
        sched = dp_schedule(graph, 1)
        assert sched.latency_us == pytest.approx(brute_force_best(graph, 1), rel=1e-9)

    def test_matches_brute_force_on_inception(self):
        graph = build_inception_graph(branches=3, depth=1)
        sched = dp_schedule(graph, 1)
        assert sched.latency_us == pytest.approx(brute_force_best(graph, 1), rel=1e-9)

    def test_never_worse_than_named_baselines(self):
        graph = build_inception_graph(branches=4, depth=2)
        scheduler = DPScheduler(graph, 1)
        dp = scheduler.solve()

        def objective(stages) -> float:
            total = 0.0
            for stage in stages:
                total += plan_stage(stage, scheduler._specs, scheduler.device).latency_us
            return total

        for baseline in (sequential_schedule, greedy_schedule, single_stage_schedule):
            sched = baseline(graph, 1)
            assert dp.latency_us <= objective(sched.stage_groups()) + 1e-9

    def test_dp_objective_tracks_measured_latency(self):
        """Measured executor latency = DP objective + schedule-independent
        fixed costs (session h2d/d2h, arena, final sync residual)."""
        graph = build_sppnet_graph(TABLE1_MODELS["SPP-Net #3"])
        dp = dp_schedule(graph, 1)
        seq = sequential_schedule(graph, 1)
        offsets = []
        for sched in (dp, seq):
            scheduler = DPScheduler(graph, 1)
            objective = sum(
                plan_stage(stage, scheduler._specs, scheduler.device).latency_us
                for stage in sched.stage_groups()
            )
            offsets.append(measure_latency(graph, sched) - objective)
        assert offsets[0] == pytest.approx(offsets[1], abs=2.0)


class TestDPBehavior:
    def test_parallel_groups_on_inception_at_batch1(self):
        sched = dp_schedule(build_inception_graph(branches=4, depth=2), 1)
        assert sched.max_parallelism >= 3

    def test_dp_beats_baselines_on_inception(self):
        graph = build_inception_graph(branches=4, depth=2)
        results = compare_strategies(graph, 1)
        dp = results["ios-dp"].latency_us
        assert dp < results["sequential"].latency_us
        assert dp < results["greedy"].latency_us
        assert dp < results["single-stage"].latency_us

    def test_optimized_beats_sequential_on_all_models(self):
        for config in TABLE1_MODELS.values():
            graph = build_sppnet_graph(config)
            dp = measure_latency(graph, dp_schedule(graph, 1))
            seq = measure_latency(graph, sequential_schedule(graph, 1))
            assert dp < seq

    def test_max_stage_ops_respected(self):
        graph = build_sppnet_graph(TABLE1_MODELS["Original SPP-Net"])
        sched = dp_schedule(graph, 1, max_stage_ops=3)
        assert all(stage.num_ops <= 3 for stage in sched.stages)

    def test_max_groups_respected(self):
        graph = build_inception_graph(branches=5, depth=1)
        sched = dp_schedule(graph, 1, max_groups=2)
        assert sched.max_parallelism <= 2

    def test_count_downsets_small_chain(self):
        g = Graph("chain")
        g.add(Operator("in", OpType.INPUT, out_shape=(4,)))
        prev = "in"
        for i in range(4):
            g.add(Operator(f"c{i}", OpType.RELU, (prev,), (4,)))
            prev = f"c{i}"
        assert count_downsets(g) == 5  # chain of 4: prefixes incl. empty

    def test_empty_graph_rejected(self):
        g = Graph("only-input")
        g.add(Operator("in", OpType.INPUT, out_shape=(1,)))
        with pytest.raises(ValueError):
            dp_schedule(g, 1)


class TestDPRandomCosts:
    """Optimality must hold for arbitrary (not just physical) kernel costs."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force_with_random_costs(self, seed):
        from repro.gpusim.kernels import KernelSpec

        graph = random_dag(8, seed + 100)
        scheduler = DPScheduler(graph, 1)
        rng = np.random.default_rng(seed)
        fuzzed = {}
        for name, spec in scheduler._specs.items():
            solo = float(rng.uniform(1.0, 50.0))
            fuzzed[name] = KernelSpec(
                op_name=spec.op_name, category=spec.category,
                solo_us=solo, work_us=float(rng.uniform(0.1, 1.0) * solo),
                blocks=spec.blocks, flops=spec.flops,
                dram_bytes=spec.dram_bytes,
            )
        scheduler._specs = fuzzed
        scheduler._stage_cost_cache.clear()
        solved = scheduler.solve()

        best = [float("inf")]

        def rec(remaining, acc):
            if acc >= best[0]:
                return
            if remaining == 0:
                best[0] = min(best[0], acc)
                return
            for mask in scheduler._downsets(remaining):
                rec(remaining & ~mask, acc + scheduler.stage_cost(mask))

        rec((1 << scheduler._n) - 1, 0.0)
        assert solved.latency_us == pytest.approx(best[0], rel=1e-9)
