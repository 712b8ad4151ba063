"""Extension benchmarks: scheduling-cost trade-off, Pareto front and input-size sweep."""

import pytest

from repro.experiments import run_ablation_scheduling_cost

from conftest import emit


@pytest.mark.table
def test_scheduling_cost_regenerate(benchmark):
    result = benchmark.pedantic(run_ablation_scheduling_cost,
                                rounds=1, iterations=1)
    emit(result)
    by = {r[0]: r for r in result.rows}
    assert float(by["rammer-style"][1]) < float(by["ios-dp"][1])      # cheaper
    assert float(by["ios-dp"][2]) <= float(by["rammer-style"][2])     # better


@pytest.mark.figure
def test_pareto_front_regenerate(benchmark):
    from repro.experiments import run_pareto_front

    result = benchmark.pedantic(run_pareto_front, rounds=1, iterations=1)
    emit(result)
    assert any("knee" in r[3] for r in result.rows)


@pytest.mark.figure
def test_input_size_sweep_regenerate(benchmark):
    from repro.experiments import run_input_size_sweep

    result = benchmark.pedantic(
        lambda: run_input_size_sweep(input_sizes=(100, 200, 400)),
        rounds=1, iterations=1,
    )
    emit(result)
    assert len(result.rows) == 3
