import statistics

import pytest

from e2e import stats


def test_discard_warmup_keeps_the_tail_and_refuses_to_empty():
    assert stats.discard_warmup([9.0, 8.0, 1.0, 2.0], 2) == [1.0, 2.0]
    assert stats.discard_warmup([1.0], 0) == [1.0]
    with pytest.raises(ValueError):
        stats.discard_warmup([1.0, 2.0], 2)
    with pytest.raises(ValueError):
        stats.discard_warmup([1.0], -1)


def test_median_ignores_one_spike():
    assert stats.median([7.3, 7.8, 7.9, 7.3, 11.0, 7.4, 7.1]) == 7.4
    with pytest.raises(ValueError):
        stats.median([])


def test_iqr_is_the_acceptance_rules_estimator():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.iqr(values) == q3 - q1
    with pytest.raises(ValueError):
        stats.iqr([1.0])


def test_percentile_needs_ten_samples_beyond_the_rank():
    thousand = [float(i) for i in range(1, 1001)]
    assert stats.percentile(thousand, 99) == 990.0        # 10 beyond
    assert stats.percentile(thousand, 50) == 500.0
    with pytest.raises(ValueError, match="9 samples beyond"):
        stats.percentile(thousand[:999], 99)
    # the PR-12 case: a "p90" of 24 passes is the third-slowest pass
    with pytest.raises(ValueError, match="2 samples beyond"):
        stats.percentile([1.0] * 24, 90)
    with pytest.raises(ValueError):
        stats.percentile(thousand, 100)
    with pytest.raises(ValueError):
        stats.percentile(thousand, 10)


def test_bootstrap_interval_brackets_the_median_and_repeats():
    sample = [7.29, 7.79, 7.89, 7.32, 11.01, 7.42, 7.06]
    lo, hi = stats.bootstrap_median_interval(sample, seed=3)
    assert lo <= stats.median(sample) <= hi
    assert min(sample) <= lo and hi <= max(sample)
    assert (lo, hi) == stats.bootstrap_median_interval(sample, seed=3)
    tight = stats.bootstrap_median_interval([5.0] * 9)
    assert tight == (5.0, 5.0)
    with pytest.raises(ValueError):
        stats.bootstrap_median_interval([])


def test_no_resample_until_pass_helpers_exist():
    # the module's whole public surface: nothing that retries or keeps a best
    assert set(stats.__all__) == {
        "MIN_TAIL_SAMPLES", "discard_warmup", "median", "iqr", "percentile", "bootstrap_median_interval"}
