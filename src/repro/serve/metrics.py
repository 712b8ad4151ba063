"""Metrics registry for the inference service.

Counters, gauges, and reservoir histograms, aggregated into a
:class:`ServiceMetrics` snapshot and rendered in the same fixed-width
table style as the ``repro.profiling`` Nsight reports, so service
telemetry and GPU profiles read as one family of artifacts.
"""

from __future__ import annotations

import threading
from collections import Counter as TallyCounter

import numpy as np

__all__ = ["Counter", "Gauge", "Histogram", "ServiceMetrics", "format_service_report"]


class Counter:
    """Monotonically increasing counter."""

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """Point-in-time value (e.g. queue depth) tracking its high-water mark."""

    def __init__(self) -> None:
        self._value = 0.0
        self._peak = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value
            self._peak = max(self._peak, value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    @property
    def peak(self) -> float:
        with self._lock:
            return self._peak


class Histogram:
    """Bounded-reservoir histogram with exact quantiles over the window.

    Keeps the most recent ``window`` observations in a ring buffer;
    quantiles are exact over that window rather than approximated over
    the full stream — the same trade nsys makes with its sampling buffer.
    """

    def __init__(self, window: int = 4096) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self._ring = np.zeros(window, dtype=np.float64)
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._ring[self._count % len(self._ring)] = value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def _window(self) -> np.ndarray:
        return self._ring[: min(self._count, len(self._ring))]

    def quantile(self, q: float) -> float:
        with self._lock:
            win = self._window()
            return float(np.percentile(win, 100 * q)) if len(win) else 0.0

    def mean(self) -> float:
        with self._lock:
            win = self._window()
            return float(win.mean()) if len(win) else 0.0


class ServiceMetrics:
    """All service telemetry in one registry.

    ``snapshot()`` returns a JSON-safe dict (no NaN, no numpy scalars) so
    benchmark emitters and the CI artifact upload can serialize it as-is.
    """

    def __init__(self) -> None:
        self.submitted = Counter()
        self.completed = Counter()
        self.rejected = Counter()
        self.timeouts = Counter()
        self.cache_hits = Counter()
        self.cache_misses = Counter()
        self.worker_failures = Counter()
        self.worker_retries = Counter()
        self.degraded_served = Counter()
        self.degraded_rejected = Counter()
        self.invalid_inputs = Counter()
        self.queue_depth = Gauge()
        self.warmup_ms = Gauge()
        self.latency_ms = Histogram()
        self.batch_latency_ms = Histogram()
        self._batch_sizes: TallyCounter[int] = TallyCounter()
        self._close_reasons: TallyCounter[str] = TallyCounter()
        self._engine_faults: TallyCounter[str] = TallyCounter()
        self._breaker_state = "closed"
        self._breaker_transitions: TallyCounter[str] = TallyCounter()
        self._lock = threading.Lock()

    # -- circuit breaker telemetry --------------------------------------
    def record_breaker_transition(self, old: str, new: str) -> None:
        with self._lock:
            self._breaker_state = new
            self._breaker_transitions[f"{old}->{new}"] += 1

    @property
    def breaker_state(self) -> str:
        with self._lock:
            return self._breaker_state

    @property
    def breaker_transitions(self) -> dict[str, int]:
        with self._lock:
            return dict(sorted(self._breaker_transitions.items()))

    def record_engine_fault(self, reason: str) -> None:
        """Tally one failed engine run of a micro-batch by its guard
        reason (:mod:`repro.robust.guard`: non-finite output, shape
        mismatch, engine error)."""
        with self._lock:
            self._engine_faults[reason] += 1

    @property
    def fallback_by_reason(self) -> dict[str, int]:
        """Engine faults by reason; the name is the frozen benchmark
        harness's (ROADMAP item 1)."""
        with self._lock:
            return dict(sorted(self._engine_faults.items()))

    def observe_batch(self, size: int, latency_ms: float,
                      closed_by: str | None = None) -> None:
        """Tally one executed micro-batch: its size, its latency and why
        it closed when it did — ``max_batch`` (full), ``queue_empty``
        (nothing more to admit) or ``draining`` (shutdown began)."""
        with self._lock:
            self._batch_sizes[size] += 1
            if closed_by is not None:
                self._close_reasons[closed_by] += 1
        self.batch_latency_ms.observe(latency_ms)

    @property
    def batch_close_reasons(self) -> dict[str, int]:
        with self._lock:
            return dict(sorted(self._close_reasons.items()))

    @property
    def batch_size_histogram(self) -> dict[int, int]:
        with self._lock:
            return dict(sorted(self._batch_sizes.items()))

    def mean_batch_size(self) -> float:
        with self._lock:
            total = sum(self._batch_sizes.values())
            if not total:
                return 0.0
            return sum(s * n for s, n in self._batch_sizes.items()) / total

    def cache_hit_rate(self) -> float:
        # Read each counter exactly once: re-reading ``cache_hits`` for
        # the numerator could observe a later value than the one summed
        # into the denominator and report a rate above 1 under load.
        hits = self.cache_hits.value
        misses = self.cache_misses.value
        lookups = hits + misses
        return hits / lookups if lookups else 0.0

    def snapshot(self) -> dict:
        return {
            "submitted": self.submitted.value,
            "completed": self.completed.value,
            "rejected": self.rejected.value,
            "timeouts": self.timeouts.value,
            "cache_hits": self.cache_hits.value,
            "cache_misses": self.cache_misses.value,
            "cache_hit_rate": self.cache_hit_rate(),
            "worker_failures": self.worker_failures.value,
            "worker_retries": self.worker_retries.value,
            "degraded_served": self.degraded_served.value,
            "degraded_rejected": self.degraded_rejected.value,
            "invalid_inputs": self.invalid_inputs.value,
            "warmup_ms": self.warmup_ms.value,
            "fallback_by_reason": self.fallback_by_reason,
            "breaker_state": self.breaker_state,
            "breaker_transitions": self.breaker_transitions,
            "queue_depth": self.queue_depth.value,
            "queue_depth_peak": self.queue_depth.peak,
            "batch_size_histogram": {
                str(k): v for k, v in self.batch_size_histogram.items()
            },
            "mean_batch_size": self.mean_batch_size(),
            "batch_close_reasons": self.batch_close_reasons,
            "latency_ms": {
                "p50": self.latency_ms.quantile(0.50),
                "p95": self.latency_ms.quantile(0.95),
                "p99": self.latency_ms.quantile(0.99),
                "mean": self.latency_ms.mean(),
            },
        }


def format_service_report(metrics: ServiceMetrics, label: str = "serve") -> str:
    """Render service telemetry in the ``repro.profiling`` table style."""
    rule = "-" * 78             # repro.profiling.report.rule()
    snap = metrics.snapshot()
    lat = snap["latency_ms"]
    lines = [
        f"Serving session: {label} | {snap['completed']} completed | "
        f"mean latency {lat['mean']:.3f} ms",
        "",
        "Request Statistics:",
        f"{'Submitted':>10}  {'Completed':>10}  {'Rejected':>9}  "
        f"{'Timeouts':>9}  {'Queue peak':>10}",
        rule,
        f"{snap['submitted']:10d}  {snap['completed']:10d}  {snap['rejected']:9d}  "
        f"{snap['timeouts']:9d}  {snap['queue_depth_peak']:10.0f}",
        "",
        "Latency Statistics (ms):",
        f"{'p50':>9}  {'p95':>9}  {'p99':>9}  {'mean':>9}",
        rule,
        f"{lat['p50']:9.3f}  {lat['p95']:9.3f}  {lat['p99']:9.3f}  {lat['mean']:9.3f}",
        "",
        "Batch Statistics:",
        f"{'Batch size':>10}  {'Dispatches':>10}",
        rule,
    ]
    for size, count in metrics.batch_size_histogram.items():
        lines.append(f"{size:10d}  {count:10d}")
    if not metrics.batch_size_histogram:
        lines.append(f"{'-':>10}  {0:10d}")
    for reason, count in snap["batch_close_reasons"].items():
        lines.append(f"  closed by [{reason}]: {count}")
    lines += [
        "",
        "Cache Statistics:",
        f"{'Hits':>9}  {'Misses':>9}  {'Hit rate':>9}",
        rule,
        f"{snap['cache_hits']:9d}  {snap['cache_misses']:9d}  "
        f"{100 * snap['cache_hit_rate']:8.1f}%",
        "",
        "Resilience Statistics:",
        f"{'Failures':>9}  {'Retries':>9}  {'Degraded':>9}  "
        f"{'Deg.rej':>9}  {'Breaker':>9}",
        rule,
        f"{snap['worker_failures']:9d}  {snap['worker_retries']:9d}  "
        f"{snap['degraded_served']:9d}  {snap['degraded_rejected']:9d}  "
        f"{snap['breaker_state']:>9}",
        "",
        "Robustness Statistics:",
        f"{'Invalid':>9}  {'Eng.fault':>9}",
        rule,
        f"{snap['invalid_inputs']:9d}  "
        f"{sum(snap['fallback_by_reason'].values()):9d}",
    ]
    for reason, count in snap["fallback_by_reason"].items():
        lines.append(f"  engine fault [{reason}]: {count}")
    return "\n".join(lines)
