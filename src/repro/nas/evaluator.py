"""Model evaluators (Retiarii's FunctionalEvaluator equivalent).

An evaluator turns a sampled architecture into the scalar objective the
exploration strategy maximizes, optionally with auxiliary metrics that
the experiment records per trial.
"""

from __future__ import annotations

import time
from typing import Callable, Mapping

from ..arch import SPPNetConfig
from .space import config_from_sample

__all__ = ["EvaluationResult", "FunctionalEvaluator", "TrainingEvaluator",
           "measure_latency_ms"]


class EvaluationResult(dict):
    """Metric dict with a mandatory ``value`` objective entry."""

    def __init__(self, value: float, **metrics) -> None:
        super().__init__(value=float(value), **metrics)

    @property
    def value(self) -> float:
        return self["value"]


class FunctionalEvaluator:
    """Wraps a plain callable ``fn(sample) -> float | Mapping``.

    This is the paper's choice ("we used FunctionalEvaluator, the default
    evaluator provided by the Retiarii framework").  The callable may
    return a bare float (treated as the objective) or a mapping with a
    ``value`` key plus any extra metrics.
    """

    def __init__(self, fn: Callable[[Mapping], float | Mapping]) -> None:
        self.fn = fn

    def evaluate(self, sample: Mapping) -> EvaluationResult:
        out = self.fn(sample)
        if isinstance(out, Mapping):
            if "value" not in out:
                raise ValueError("evaluator mapping result must contain 'value'")
            metrics = dict(out)
            value = float(metrics.pop("value"))
            return EvaluationResult(value, **metrics)
        return EvaluationResult(float(out))


def measure_latency_ms(
    config: SPPNetConfig,
    input_size: int = 100,
    batch: int = 1,
    repeats: int = 5,
    warmup: int = 1,
    backend: str = "eager",
    seed: int = 0,
) -> float:
    """Wall-clock inference latency (ms) for one sampled architecture.

    Complements the analytic cost model in :mod:`repro.nas.constrained`
    (simulated FLOP/byte roofline) with a measured number: builds an
    untrained :class:`~repro.arch.SPPNetDetector` from ``config``, runs
    ``repeats`` timed forward passes over a fixed random batch, and
    returns the median per-pass time in milliseconds.  Latency is
    weight-agnostic, so untrained parameters measure the same program a
    trained checkpoint would.  The eager backend runs in the
    detector's float32 weights (float64 before the detector built
    float32; see docs/resilience.md on resuming older latency sweeps).

    ``backend="engine"`` times the compiled inference engine
    (:mod:`repro.engine`) instead of the eager autograd path, so a
    latency-constrained search can rank candidates by their deployed
    cost.  Compilation and program binding happen in an explicit
    warmup before any timed pass and are not counted.
    """
    import numpy as np

    from ..detect.predict import predict
    from ..detect.sppnet import SPPNetDetector

    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if backend not in ("eager", "engine"):
        raise ValueError(f"unknown backend {backend!r}; use 'eager' or 'engine'")
    rng = np.random.default_rng(seed)
    model = SPPNetDetector(config)
    model.eval()
    images = rng.standard_normal(
        (batch, config.in_channels, input_size, input_size)
    ).astype(np.float32)
    run: Callable[[], object]
    if backend == "engine":
        from ..engine import compiled_for

        compiled = compiled_for(model)
        # Bind the shape's trunk and this batch's head before any timed
        # (or even warmup=0) pass, so the reported latency is
        # steady-state execution, never compilation.
        compiled.warmup([batch],
                        (config.in_channels, input_size, input_size))
        run = lambda: compiled.predict(images, batch_size=batch)  # noqa: E731
    else:
        run = lambda: predict(model, images, batch_size=batch)  # noqa: E731
    for _ in range(warmup):
        run()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times.append((time.perf_counter() - start) * 1e3)
    times.sort()
    return times[len(times) // 2]


class TrainingEvaluator(FunctionalEvaluator):
    """Evaluator that trains a real detector per sample.

    ``train_fn(config: SPPNetConfig) -> float | Mapping`` receives the
    instantiated architecture, keeping the search space decoding in one
    place.
    """

    def __init__(self, train_fn: Callable[[SPPNetConfig], float | Mapping],
                 in_channels: int = 4) -> None:
        super().__init__(lambda sample: train_fn(
            config_from_sample(sample, in_channels=in_channels)
        ))
