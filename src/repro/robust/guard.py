"""Guarded engine execution: validate compiled outputs, fall back to eager.

The compiled engine (:mod:`repro.engine`) is several times faster than
the eager autograd path, but it is also the component with the most
machinery to go wrong — packed weights, recycled arena slots, fused
kernels.  :class:`GuardedEngine` wraps it with a numerical safety net:
every engine batch is checked for non-finite values and for shape
agreement with the traced program's contract, and on any violation (or
an outright exception) the *same* batch transparently re-executes on the
eager backend, so the caller always gets a valid answer.  A batch is
either a stack (:meth:`GuardedEngine.predict_batch`) or *open*
(:meth:`GuardedEngine.predict_stream`: chips pulled from an iterator
while the batch runs, as the serving layer feeds it); "the same batch"
is then the chips pulled so far.

Repeated engine faults trip a :class:`~repro.serve.breaker.CircuitBreaker`
scoped to the engine: while it is open every batch goes straight to
eager (no doomed engine attempt per batch), and the breaker's usual
half-open probe lets the engine earn its way back.  Every fallback is
tallied by reason — ``repro.serve.InferenceService`` feeds the tally
into ``ServiceMetrics.fallback_by_reason`` — and the first of each
reason on an engine emits a ``RuntimeWarning`` naming it, so no
engine->eager degradation is silent.
"""

from __future__ import annotations

import threading
import warnings
from collections import Counter
from itertools import islice
from typing import Callable

import numpy as np

from ..serve.breaker import OPEN, BreakerPolicy, CircuitBreaker

__all__ = [
    "GuardedEngine",
    "FALLBACK_NON_FINITE",
    "FALLBACK_SHAPE",
    "FALLBACK_ENGINE_ERROR",
    "FALLBACK_BREAKER_OPEN",
]

FALLBACK_NON_FINITE = "non_finite"
FALLBACK_SHAPE = "shape_mismatch"
FALLBACK_ENGINE_ERROR = "engine_error"
FALLBACK_BREAKER_OPEN = "breaker_open"


def _check_outputs(confidences: np.ndarray, boxes: np.ndarray,
                   n: int) -> str | None:
    """Return a fallback reason when (confidences, boxes) is invalid for
    an n-chip batch, else None."""
    confidences = np.asarray(confidences)
    boxes = np.asarray(boxes)
    if confidences.shape != (n,) or boxes.shape != (n, 4):
        return FALLBACK_SHAPE
    if not (np.isfinite(confidences).all() and np.isfinite(boxes).all()):
        return FALLBACK_NON_FINITE
    return None


class GuardedEngine:
    """Engine-first, eager-on-violation detector execution.

    Parameters
    ----------
    model       : the detector; both backends run this same instance
    breaker     : engine-scoped breaker policy.  Defaults to tripping
                  after 3 engine faults and re-probing after 60 s —
                  "toward eager-only": a persistently broken engine
                  stops being attempted, a transiently broken one gets
                  periodic chances to recover.
    on_fallback : callback fired with the reason string every time a
                  batch is answered by eager instead of the engine
    compiled    : pre-built compiled model (tests inject faulty ones);
                  default compiles via :func:`repro.engine.compiled_for`
    """

    def __init__(self, model, breaker: BreakerPolicy | None = None,
                 on_fallback: Callable[[str], None] | None = None,
                 compiled=None) -> None:
        self.model = model
        self._listeners: list[Callable[[str], None]] = []
        if on_fallback is not None:
            self._listeners.append(on_fallback)
        self.breaker = CircuitBreaker(
            breaker if breaker is not None
            else BreakerPolicy(failure_threshold=3, reset_timeout_s=60.0)
        )
        if compiled is None:
            from ..engine import compiled_for

            model.eval()
            compiled = compiled_for(model)
        self.compiled = compiled
        self._fallbacks: Counter[str] = Counter()
        self._lock = threading.Lock()

    @property
    def fallback_by_reason(self) -> dict[str, int]:
        with self._lock:
            return dict(sorted(self._fallbacks.items()))

    @property
    def engine_available(self) -> bool:
        """False while the engine breaker is open (eager-only mode)."""
        return self.breaker.state != OPEN

    def warmup(self, batch_sizes,
               sample_shape: tuple[int, ...] | None = None) -> float:
        """Pre-build the compiled engine's programs for ``batch_sizes``
        (see :meth:`repro.engine.CompiledModel.warmup`); returns ms."""
        return self.compiled.warmup(batch_sizes, sample_shape)

    def add_fallback_listener(self, callback: Callable[[str], None]) -> None:
        """Also notify ``callback`` on every fallback (the service chains
        its metrics registry onto an injected engine this way)."""
        self._listeners.append(callback)

    def _fallback(self, reason: str) -> None:
        with self._lock:
            self._fallbacks[reason] += 1
            first = self._fallbacks[reason] == 1
        if first:
            # loud once per reason; the tally counts every one
            warnings.warn(
                f"GuardedEngine fell back to eager ({reason}); further "
                f"{reason!r} fallbacks of this engine are only counted "
                "(fallback_by_reason)", RuntimeWarning, stacklevel=4)
        for listener in self._listeners:
            listener(reason)

    def _eager(self, stack: np.ndarray,
               batch_size: int) -> tuple[np.ndarray, np.ndarray]:
        from ..detect.predict import predict

        return predict(self.model, stack, batch_size=batch_size)

    def _guarded(self, run, taken, batch_size: int | None = None
                 ) -> tuple[np.ndarray, np.ndarray, str]:
        """The guard's one contract.  ``run()`` is the engine call;
        ``taken()`` is the chips it consumed, asked only after ``run``
        returned or raised (and instead of it while the breaker is
        open).  A valid engine answer is returned as is; anything else
        counts one fallback and re-runs ``taken()`` as one eager stack.
        """
        if self.breaker.allow():
            try:
                conf, boxes = run()
            except Exception:
                reason = FALLBACK_ENGINE_ERROR
            else:
                reason = _check_outputs(conf, boxes, len(taken()))
                if reason is None:
                    self.breaker.record_success()
                    return conf, boxes, "engine"
            self.breaker.record_failure()
        else:
            reason = FALLBACK_BREAKER_OPEN
        self._fallback(reason)
        stack = np.stack(taken())
        conf, boxes = self._eager(stack, batch_size or len(stack))
        return conf, boxes, "eager"

    def predict_batch(self, stack: np.ndarray, batch_size: int | None = None
                      ) -> tuple[np.ndarray, np.ndarray, str]:
        """Run one (N, C, H, W) batch; returns (confidences, boxes,
        backend-that-answered)."""
        batch_size = batch_size if batch_size is not None else len(stack)
        return self._guarded(
            lambda: self.compiled.predict(stack, batch_size=batch_size),
            lambda: stack, batch_size)

    def predict_stream(self, chips, limit: int
                       ) -> tuple[np.ndarray, np.ndarray, str]:
        """:meth:`predict_batch` over one *open* micro-batch (see
        :meth:`repro.engine.CompiledModel.predict_stream`): the engine
        pulls (C, H, W) chips from the iterator ``chips`` between trunk
        runs, at most ``limit`` of them, and the answer covers exactly
        the chips pulled.  Every pulled chip is remembered, so an
        engine exception or an invalid output re-runs *those* chips on
        eager under the same reasons and breaker accounting as a closed
        batch.  When nothing was pulled — the breaker is open, or the
        engine failed before its first pull — eager answers whatever
        ``chips`` offers now, up to ``limit``.
        """
        source = islice(chips, limit)
        pulled: list[np.ndarray] = []

        def remembered():
            for chip in source:
                pulled.append(chip)
                yield chip

        def taken() -> list[np.ndarray]:
            if not pulled:
                pulled.extend(source)
            return pulled

        return self._guarded(
            lambda: self.compiled.predict_stream(remembered(), limit), taken)
