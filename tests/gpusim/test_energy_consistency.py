"""Simulator trace data and trace-consistency checking."""

import pytest

from repro.arch import TABLE1_MODELS
from repro.graph import build_inception_graph, build_sppnet_graph
from repro.gpusim import (
    GraphExecutor,
    TraceInconsistency,
    check_trace_consistency,
    sequential_stages,
)
from repro.ios import dp_schedule, sequential_schedule


@pytest.fixture(scope="module")
def graph():
    return build_sppnet_graph(TABLE1_MODELS["SPP-Net #2"])


@pytest.fixture(scope="module")
def executor(graph):
    return GraphExecutor(graph)


class TestTraceConsistency:
    def test_kernel_utilization_recorded(self, executor, graph):
        result = executor.run(sequential_stages(graph), 1)
        utils = [e.utilization for e in result.trace.kernels]
        assert all(0.0 < u <= 1.0 for u in utils)
        # occupancy-limited batch-1 kernels exist alongside saturating ones
        assert min(utils) < 0.9

    def test_dp_schedule_trace_consistent(self, executor, graph):
        for batch in (1, 64):
            sched = dp_schedule(graph, batch)
            result = executor.run(sched, batch)
            check_trace_consistency(result.trace, sched.stage_groups())

    def test_parallel_schedule_trace_consistent(self):
        graph = build_inception_graph(branches=4, depth=2)
        ex = GraphExecutor(graph)
        sched = dp_schedule(graph, 1)
        assert sched.max_parallelism > 1
        result = ex.run(sched, 1)
        check_trace_consistency(result.trace, sched.stage_groups())

    def test_sequential_trace_consistent(self, executor, graph):
        sched = sequential_schedule(graph, 2)
        result = executor.run(sched, 2)
        check_trace_consistency(result.trace, sched.stage_groups())

    def test_detects_wrong_schedule(self, executor, graph):
        sched = dp_schedule(graph, 1)
        result = executor.run(sched, 1)
        wrong = [[["conv1"]]]  # claims only one op ran
        with pytest.raises(TraceInconsistency, match="kernel set"):
            check_trace_consistency(result.trace, wrong)

    def test_detects_fabricated_barrier_violation(self):
        """Claiming sequential stages for an actually-parallel execution
        must fail the barrier check: overlapped branches cannot have been
        separated by a stage boundary."""
        graph = build_inception_graph(branches=3, depth=2)
        ex = GraphExecutor(graph)
        sched = dp_schedule(graph, 1)
        assert sched.max_parallelism >= 3
        result = ex.run(sched, 1)
        fabricated = sequential_stages(graph)
        with pytest.raises(TraceInconsistency):
            check_trace_consistency(result.trace, fabricated)
