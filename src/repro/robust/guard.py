"""Guarded engine execution: the compiled engine answers or fails loudly.

The compiled engine (:mod:`repro.engine`) is the one inference runtime
of the deployed path, and also the component with the most machinery
to go wrong — packed weights, recycled arena slots, fused kernels.
:class:`GuardedEngine` checks every answer it gives: confidences of
shape ``(n,)`` and boxes of shape ``(n, 4)`` for the ``n`` chips the
call actually consumed, every value finite.  A batch is a stack
(:meth:`GuardedEngine.predict_batch`), *open*
(:meth:`GuardedEngine.predict_stream`: chips pulled from an iterator
while the batch runs, as the serving layer feeds it), or one
micro-batch of a raster's windows (:meth:`GuardedEngine.predict_windows`,
the robust scan's).

An answer that fails the check raises :class:`EngineError`, which is
:class:`~repro.retry.Permanent`: the same chips give the same bits, so
no retry can change it.  A row is computed from its own chip alone, so
a non-finite answer names its rows (:attr:`EngineError.rows`) and
carries the answer, whose other rows are valid: one chip whose finite
pixels overflow the network fails alone.  An exception from the engine
itself propagates unchanged, and :func:`repro.retry.retryable` judges
it by its type.  Every fault is tallied by reason
(:attr:`GuardedEngine.fallback_by_reason`, :func:`fault_reason`).
Eager autograd is not a runtime here: it trains the models and is the
tests' oracle (``repro.detect.predict(backend="eager")``).
"""

from __future__ import annotations

import threading
from collections import Counter

import numpy as np

from ..retry import Permanent

__all__ = [
    "EngineError",
    "GuardedEngine",
    "fault_reason",
    "FAULT_NON_FINITE",
    "FAULT_SHAPE",
    "FAULT_ENGINE_ERROR",
]

FAULT_NON_FINITE = "non_finite"
FAULT_SHAPE = "shape_mismatch"
FAULT_ENGINE_ERROR = "engine_error"


class EngineError(RuntimeError, Permanent):
    """The compiled engine answered with outputs that fail the guard's
    check; ``reason`` is :data:`FAULT_NON_FINITE` or :data:`FAULT_SHAPE`.

    A non-finite answer also names the batch positions of its
    non-finite ``rows`` and keeps the ``answer`` (confidences, boxes),
    whose other rows are valid; a wrong-shape answer has neither.
    """

    def __init__(self, reason: str, rows: tuple[int, ...] = (),
                 answer: tuple[np.ndarray, np.ndarray] | None = None
                 ) -> None:
        super().__init__(reason)
        self.reason = reason
        self.rows = rows
        self.answer = answer


def fault_reason(exc: BaseException) -> str:
    """The tally key of an engine fault: an :class:`EngineError`'s
    reason, else :data:`FAULT_ENGINE_ERROR`."""
    return exc.reason if isinstance(exc, EngineError) else FAULT_ENGINE_ERROR


def _check_outputs(confidences: np.ndarray, boxes: np.ndarray,
                   n: int) -> EngineError | None:
    """Return the fault when (confidences, boxes) is invalid for an
    n-chip batch, else None."""
    confidences = np.asarray(confidences)
    boxes = np.asarray(boxes)
    if confidences.shape != (n,) or boxes.shape != (n, 4):
        return EngineError(FAULT_SHAPE)
    finite = np.isfinite(confidences) & np.isfinite(boxes).all(axis=1)
    if not finite.all():
        return EngineError(FAULT_NON_FINITE,
                           rows=tuple(np.flatnonzero(~finite).tolist()),
                           answer=(confidences, boxes))
    return None


class GuardedEngine:
    """The compiled engine behind an output check.

    ``model`` is compiled through :func:`repro.engine.compiled_for`,
    which shares one compile per model instance (and takes a stand-in
    program from a wrapper's ``engine_program()``, the one way a test
    substitutes the engine).
    """

    def __init__(self, model) -> None:
        from ..engine import compiled_for

        model.eval()
        self.compiled = compiled_for(model)
        self._faults: Counter[str] = Counter()
        self._lock = threading.Lock()

    @property
    def fallback_by_reason(self) -> dict[str, int]:
        """Engine faults so far, by reason: every one was raised.  The
        name is the frozen benchmark harness's (ROADMAP item 1)."""
        with self._lock:
            return dict(sorted(self._faults.items()))

    def warmup(self, batch_sizes,
               sample_shape: tuple[int, ...] | None = None) -> float:
        """Pre-build the compiled engine's programs for ``batch_sizes``
        (see :meth:`repro.engine.CompiledModel.warmup`); returns ms."""
        return self.compiled.warmup(batch_sizes, sample_shape)

    def _checked(self, run, pulled) -> tuple[np.ndarray, np.ndarray]:
        """The guard's one contract.  ``run()`` is the engine call and
        ``pulled()`` the number of chips it consumed, asked once ``run``
        returned.  A valid answer is returned as is; a fault is tallied
        and raised."""
        try:
            conf, boxes = run()
        except Exception as exc:
            self._tally(fault_reason(exc))
            raise
        fault = _check_outputs(conf, boxes, pulled())
        if fault is not None:
            self._tally(fault.reason)
            raise fault
        return conf, boxes

    def _tally(self, reason: str) -> None:
        with self._lock:
            self._faults[reason] += 1

    def predict_batch(self, stack: np.ndarray, batch_size: int | None = None
                      ) -> tuple[np.ndarray, np.ndarray, str]:
        """Run one (N, C, H, W) batch; returns (confidences, boxes,
        ``"engine"``).  The constant third value stays while the frozen
        benchmark harness unpacks three (ROADMAP item 1)."""
        batch_size = batch_size if batch_size is not None else len(stack)
        conf, boxes = self._checked(
            lambda: self.compiled.predict(stack, batch_size=batch_size),
            lambda: len(stack))
        return conf, boxes, "engine"

    def predict_windows(self, image: np.ndarray, origins, window: int,
                        batch_size: int = 20, span=None):
        """:meth:`repro.engine.CompiledModel.predict_windows` behind the
        check: a generator of one checked ``(confidences, boxes)`` per
        micro-batch of the windows of ``image`` at ``origins`` that
        ``span`` names.  A micro-batch that faults raises, which ends the
        generator: a caller that goes on starts another over the
        indices left (same origins, so the same plan and the same
        bytes)."""
        from ..engine.compiled import _span_indices

        n = len(_span_indices(span, len(origins)))
        batches = self.compiled.predict_windows(
            image, origins, window, batch_size=batch_size, span=span)
        for at in range(0, n, batch_size):
            yield self._checked(lambda: next(batches),
                                lambda: min(batch_size, n - at))

    def predict_stream(self, chips, limit: int
                       ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`predict_batch` over one *open* micro-batch (see
        :meth:`repro.engine.CompiledModel.predict_stream`): the engine
        pulls (C, H, W) chips from the iterator ``chips`` between trunk
        runs, at most ``limit`` of them, and the answer must cover
        exactly the chips pulled."""
        pulled = 0

        def counted():
            nonlocal pulled
            for chip in chips:
                pulled += 1
                yield chip

        return self._checked(
            lambda: self.compiled.predict_stream(counted(), limit),
            lambda: pulled)
