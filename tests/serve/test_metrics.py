"""Service metrics registry: counters, gauges, quantiles, report text."""

import json

import pytest

from repro.serve import Counter, Gauge, Histogram, ServiceMetrics, format_service_report


class TestPrimitives:
    def test_counter_monotonic(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_tracks_peak(self):
        g = Gauge()
        g.set(3)
        g.set(10)
        g.set(2)
        assert g.value == 2 and g.peak == 10

    def test_histogram_quantiles(self):
        h = Histogram()
        for v in range(1, 101):
            h.observe(float(v))
        assert h.quantile(0.5) == pytest.approx(50.5)
        assert h.quantile(0.99) == pytest.approx(99.01)
        assert h.mean() == pytest.approx(50.5)

    def test_histogram_empty(self):
        h = Histogram()
        assert h.quantile(0.5) == 0.0 and h.mean() == 0.0

    def test_histogram_window_bounds_memory(self):
        h = Histogram(window=8)
        for v in range(100):
            h.observe(float(v))
        # only the last 8 observations remain
        assert h.quantile(0.0) == 92.0
        assert h.count == 100


class TestServiceMetrics:
    def test_batch_histogram_and_mean(self):
        m = ServiceMetrics()
        m.observe_batch(4, 1.0)
        m.observe_batch(4, 1.5)
        m.observe_batch(8, 2.0)
        assert m.batch_size_histogram == {4: 2, 8: 1}
        assert m.mean_batch_size() == pytest.approx((4 + 4 + 8) / 3)

    def test_cache_hit_rate(self):
        m = ServiceMetrics()
        assert m.cache_hit_rate() == 0.0
        m.cache_hits.inc(3)
        m.cache_misses.inc()
        assert m.cache_hit_rate() == pytest.approx(0.75)

    def test_snapshot_is_strict_json(self):
        """Snapshot must serialize without NaN/Inf or numpy scalars."""
        m = ServiceMetrics()
        m.submitted.inc(2)
        m.latency_ms.observe(1.25)
        m.observe_batch(2, 0.5)
        payload = json.dumps(m.snapshot(), allow_nan=False)
        restored = json.loads(payload)
        assert restored["submitted"] == 2
        assert restored["batch_size_histogram"] == {"2": 1}

    def test_report_renders_profiling_style(self):
        m = ServiceMetrics()
        m.submitted.inc()
        m.completed.inc()
        m.latency_ms.observe(2.0)
        m.observe_batch(1, 2.0)
        text = format_service_report(m, label="unit")
        assert "Serving session: unit" in text
        assert "Request Statistics:" in text
        assert "Latency Statistics (ms):" in text
        assert "Cache Statistics:" in text
        assert "-" * 78 in text  # same rule as repro.profiling reports


class TestConcurrentCacheHitRate:
    def test_hit_rate_bounded_under_concurrent_increments(self):
        """cache_hit_rate must read each counter exactly once: re-reading
        hits for the numerator under concurrent traffic reported > 1."""
        import threading

        m = ServiceMetrics()
        stop = threading.Event()
        bad = []

        def writer():
            while not stop.is_set():
                m.cache_hits.inc()
                m.cache_misses.inc()

        def scanner():
            while not stop.is_set():
                rate = m.cache_hit_rate()
                if not 0.0 <= rate <= 1.0:
                    bad.append(rate)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        threads.append(threading.Thread(target=scanner))
        for t in threads:
            t.start()
        import time
        time.sleep(0.3)
        stop.set()
        for t in threads:
            t.join()
        assert bad == []


class TestResilienceTelemetry:
    def test_resilience_section_in_report(self):
        m = ServiceMetrics()
        m.worker_failures.inc(3)
        m.worker_retries.inc(2)
        text = format_service_report(m, label="unit")
        section = text.split("Resilience Statistics:\n")[1].splitlines()
        assert section[0].split() == ["Failures", "Retries"]
        assert section[2].split() == ["3", "2"]
