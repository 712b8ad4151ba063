"""Robust pass statistics for the end-to-end benchmark.

Everything a run reports is a median (or a guarded percentile) of
fixed-count samples.  There is deliberately no best-of, no
resample-until-pass and no percentile that the sample cannot support:
those are how the older ``bench_*`` gates reported a 9x speedup from one
cold round (ROADMAP open item 1).
"""

from __future__ import annotations

import math
import random
import statistics
from typing import Sequence

__all__ = [
    "MIN_TAIL_SAMPLES",
    "discard_warmup",
    "median",
    "iqr",
    "percentile",
    "bootstrap_median_interval",
]

#: a percentile is only reported when at least this many samples lie
#: beyond it; fewer and the "tail" is one or two arbitrary samples
MIN_TAIL_SAMPLES = 10


def discard_warmup(samples: Sequence[float], warmup: int) -> list[float]:
    """The samples after the first ``warmup``; refuses to discard them all."""
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    if len(samples) <= warmup:
        raise ValueError(
            f"{len(samples)} samples leave nothing after discarding {warmup}"
        )
    return list(samples[warmup:])


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("median of no samples")
    return float(statistics.median(samples))


def iqr(samples: Sequence[float]) -> float:
    """Q3 - Q1 as ``statistics.quantiles(n=4)`` gives them (the same
    estimator the benchmark's acceptance rule is stated in)."""
    if len(samples) < 2:
        raise ValueError("IQR needs at least two samples")
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return float(q3 - q1)


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (nearest rank), or ValueError when fewer
    than :data:`MIN_TAIL_SAMPLES` samples lie beyond it.

    With 24 scan passes a "p90" is the third-slowest pass and a "p99" is
    the slowest: both are single samples that repeat nothing.  Refusing
    is what keeps such a number from ever being published.
    """
    if not 50.0 <= q < 100.0:
        raise ValueError("percentile q must be in [50, 100)")
    n = len(samples)
    rank = math.ceil(q / 100.0 * n)          # 1-based nearest rank
    beyond = n - rank
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {n} samples has {max(beyond, 0)} samples beyond it; "
            f"{MIN_TAIL_SAMPLES} are required"
        )
    return float(sorted(samples)[rank - 1])


def bootstrap_median_interval(samples: Sequence[float], *, level: float = 0.95,
                              resamples: int = 2000,
                              seed: int = 0) -> tuple[float, float]:
    """Percentile-bootstrap interval for the median (seeded, so the
    interval of a stored sample can be recomputed exactly)."""
    if not samples:
        raise ValueError("bootstrap of no samples")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    rng = random.Random(seed)
    n = len(samples)
    medians = sorted(
        statistics.median(rng.choices(samples, k=n)) for _ in range(resamples)
    )
    tail = (1.0 - level) / 2.0
    lo = medians[int(math.floor(tail * (resamples - 1)))]
    hi = medians[int(math.ceil((1.0 - tail) * (resamples - 1)))]
    return float(lo), float(hi)
