"""Ahead-of-time scheduling baselines (§8.3 extension)."""

import pytest

from repro.arch import TABLE1_MODELS
from repro.graph import build_inception_graph, build_sppnet_graph
from repro.gpusim import validate_stages
from repro.ios import (
    dp_schedule,
    measure_latency,
    nimble_style_schedule,
    rammer_style_schedule,
    scheduling_cost_comparison,
)


@pytest.fixture(scope="module")
def inception():
    return build_inception_graph(branches=4, depth=2)


@pytest.fixture(scope="module")
def sppnet():
    return build_sppnet_graph(TABLE1_MODELS["SPP-Net #2"])


class TestAheadOfTime:
    def test_rammer_schedule_valid(self, sppnet):
        sched = rammer_style_schedule(sppnet, 1)
        validate_stages(sppnet, sched.stage_groups())

    def test_rammer_groups_parallel_branches(self, inception):
        sched = rammer_style_schedule(inception, 1)
        assert sched.max_parallelism >= 4

    def test_nimble_reuses_pilot_structure(self, sppnet):
        pilot = dp_schedule(sppnet, 1)
        reused = nimble_style_schedule(sppnet, 64, pilot_batch=1)
        assert reused.stages == pilot.stages
        assert reused.batch == 64
        validate_stages(sppnet, reused.stage_groups())

    def test_dp_never_loses_to_static_baselines(self, inception):
        dp = measure_latency(inception, dp_schedule(inception, 1))
        rammer = measure_latency(inception, rammer_style_schedule(inception, 1))
        assert dp <= rammer + 1e-9

    def test_cost_comparison_rows(self, inception):
        rows = scheduling_cost_comparison(inception, 1)
        names = [r.strategy for r in rows]
        assert "ios-dp" in names and "rammer-style" in names
        by = {r.strategy: r for r in rows}
        # Static scheduling is orders of magnitude cheaper to *produce*...
        assert by["rammer-style"].scheduling_ms < by["ios-dp"].scheduling_ms
        # ... but the DP's schedule is at least as fast to *run*.
        assert by["ios-dp"].latency_us <= by["rammer-style"].latency_us + 1e-9
