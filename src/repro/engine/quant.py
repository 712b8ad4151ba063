"""Quantized execution for the compiled engine, gated by accuracy.

Two reduced-precision modes ride the same trace/fuse/plan pipeline as
float32:

* ``float16`` — weights are rounded through IEEE half precision at pack
  time and the program otherwise runs unchanged.  Zero runtime cost, a
  2x smaller checkpoint footprint, and a worst-case relative error
  around 1e-3 — the mode deployment uses when the accuracy constraint
  has headroom.
* ``int8`` — symmetric per-output-channel weight quantization plus
  per-tensor activation scales.  The conv/linear GEMMs run on
  integer-valued operands with float32 accumulation (the NumPy
  simulation of an int8 MAC pipeline with a 32-bit accumulator) and the
  output is rescaled by ``a_scale * w_scale[ch]`` before bias and
  activation.  Activation scales are dynamic (per-call absmax) until
  :meth:`~.compiled.CompiledModel.calibrate` freezes static scales from
  a percentile sweep over a held-out chip sample.  A call is what the
  bound kernel sees: one sample for the steps before the first
  fully-connected layer (the engine loops that trunk over the batch),
  the whole batch from there on.

Mode selection is subordinated to the paper's accuracy constraint
``a(n) > A`` (§4: efficiency optimization is only admissible while
accuracy stays above the floor): :func:`quantize_with_accuracy_gate`
evaluates candidate modes against a caller-supplied accuracy function
and falls back to float32 when every reduced-precision candidate misses
the floor.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QUANT_MODES",
    "QuantPolicy",
    "round_f16",
    "quantize_weight_per_channel",
    "activation_scale",
    "bind_conv_q8",
    "bind_linear_q8",
    "quantize_with_accuracy_gate",
]

QUANT_MODES = ("float32", "float16", "int8")


@dataclass(frozen=True)
class QuantPolicy:
    """Quantized-execution configuration for one compiled model."""

    mode: str = "float32"
    #: |activation| percentile that maps to int8 full scale during
    #: calibration; clipping the tail beats scaling to outliers.
    percentile: float = 99.9

    def __post_init__(self) -> None:
        if self.mode not in QUANT_MODES:
            raise ValueError(
                f"unknown quantization mode {self.mode!r}; "
                f"expected one of {QUANT_MODES}")
        if not 50.0 <= self.percentile <= 100.0:
            raise ValueError("calibration percentile must be in [50, 100]")

    @staticmethod
    def coerce(value) -> "QuantPolicy":
        if isinstance(value, QuantPolicy):
            return value
        return QuantPolicy(mode=str(value))


def round_f16(arr: np.ndarray, dtype=np.float32) -> np.ndarray:
    """Round through IEEE float16 (the float16 mode's weight transform)."""
    return np.ascontiguousarray(
        np.asarray(arr).astype(np.float16).astype(dtype))


def quantize_weight_per_channel(
        w_pack: np.ndarray, dtype=np.float32
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric int8 per-output-channel quantization of a ``(K, F)``
    GEMM operand.

    Returns ``(q, scales)`` where ``q`` holds integer values in
    ``[-127, 127]`` stored as ``dtype`` (so BLAS consumes them directly)
    and ``w ≈ q * scales`` columnwise.  All-zero channels get scale 1.
    """
    absmax = np.abs(w_pack).max(axis=0)
    scales = np.where(absmax > 0.0, absmax / 127.0, 1.0)
    q = np.clip(np.rint(w_pack / scales), -127.0, 127.0)
    return (np.ascontiguousarray(q, dtype=dtype),
            np.ascontiguousarray(scales, dtype=dtype))


def activation_scale(view: np.ndarray, percentile: float) -> float:
    """Calibration statistic: |x| percentile mapped to int8 full scale."""
    mag = float(np.percentile(np.abs(view), percentile))
    return mag / 127.0 if mag > 0.0 else 1.0


def _quantize_into(dst2d: np.ndarray, scale: float) -> None:
    """In-place ``dst = clip(rint(dst / scale), -127, 127)``."""
    np.multiply(dst2d, 1.0 / scale, out=dst2d)
    np.rint(dst2d, out=dst2d)
    np.clip(dst2d, -127.0, 127.0, out=dst2d)


def _dynamic_scale(arr: np.ndarray) -> float:
    mag = float(np.abs(arr).max())
    return mag / 127.0 if mag > 0.0 else 1.0


def _compose_q(phases):
    def fn(acc=None, phases=phases):
        if acc is None:
            for _, sub in phases:
                sub()
            return
        for category, sub in phases:
            t0 = _time.perf_counter()
            sub()
            acc[category] = (acc.get(category, 0.0)
                            + _time.perf_counter() - t0)
    return fn


def bind_conv_q8(*, src, out, scratch, w_q, w_scales, bias, k, stride, pad,
                 relu, pool, scales: dict, name: str):
    """Bind one int8 conv (+ optional fused 2x2/s2 pool) to arena views.

    ``scales`` is the model's shared activation-scale table; until
    :meth:`calibrate` populates ``scales[name]`` the kernel falls back
    to a dynamic per-call absmax scale.  Pooling runs on the raw integer
    accumulator (per-channel rescaling is positive, so it commutes with
    max), keeping the dequantization pass on the 4x-smaller tensor.  A
    fused pool gathers only the conv rows and columns it reads
    (:func:`.kernels.pooled_extent`), so the dynamic scale is the absmax
    of those columns alone.
    """
    from .kernels import (  # local import avoids a module cycle
        _conv_windows,
        _pool2x2_views,
        maxpool_shifted,
    )

    n, c = src.shape[0], src.shape[-1]
    f = w_q.shape[1]
    kkc = c * k * k
    phases = []
    win, offset = _conv_windows(src, scratch, k, stride, pad, pool, phases)
    ho, wo = win.shape[1], win.shape[2]
    cols2d = scratch[offset:offset + n * ho * wo * kkc].reshape(
        n * ho * wo, kkc)
    offset += n * ho * wo * kkc
    cols = cols2d.reshape(n, ho, wo, k, k, c)

    def gather(win=win, cols=cols):
        np.copyto(cols, win)
    phases.append(("memops", gather))

    state = {"scale": 1.0}

    def quantize(cols2d=cols2d, scales=scales, name=name, state=state):
        scale = scales.get(name)
        if scale is None:
            scale = _dynamic_scale(cols2d)
        state["scale"] = scale
        _quantize_into(cols2d, scale)
    phases.append(("elementwise", quantize))

    if pool is None:
        gemm_out = out.reshape(n * ho * wo, f)
    else:
        stage = scratch[offset:offset + n * ho * wo * f].reshape(n, ho, wo, f)
        gemm_out = stage.reshape(n * ho * wo, f)

    def gemm(cols2d=cols2d, w_q=w_q, gemm_out=gemm_out):
        np.dot(cols2d, w_q, out=gemm_out)
    phases.append(("conv", gemm))

    if pool is not None:
        ph, pw = out.shape[1], out.shape[2]
        views = _pool2x2_views(stage, ph, pw)

        def pool_fn(views=views, out=out):
            maxpool_shifted(views, out)
        phases.append(("pooling", pool_fn))

    deq_out = out.reshape(-1, f)

    def epilogue(deq_out=deq_out, w_scales=w_scales, bias=bias,
                 state=state, relu=relu):
        deq_out *= state["scale"] * w_scales
        if bias is not None:
            deq_out += bias
        if relu:
            np.maximum(deq_out, 0.0, out=deq_out)
    phases.append(("elementwise", epilogue))
    return _compose_q(phases)


def bind_linear_q8(*, in2d, out, scratch, w_q, w_scales, bias, relu,
                   scales: dict, name: str):
    """Bind one int8 linear layer: quantize a scratch copy of the input
    (the arena view may have other consumers), integer GEMM, rescale."""
    rows, feats = in2d.shape
    qbuf = scratch[:rows * feats].reshape(rows, feats)
    state = {"scale": 1.0}

    def quantize(in2d=in2d, qbuf=qbuf, scales=scales, name=name,
                 state=state):
        scale = scales.get(name)
        if scale is None:
            scale = _dynamic_scale(in2d)
        state["scale"] = scale
        np.copyto(qbuf, in2d)
        _quantize_into(qbuf, scale)

    def gemm(qbuf=qbuf, w_q=w_q, out=out):
        np.dot(qbuf, w_q, out=out)

    def epilogue(out=out, w_scales=w_scales, bias=bias, state=state,
                 relu=relu):
        out *= state["scale"] * w_scales
        if bias is not None:
            out += bias
        if relu:
            np.maximum(out, 0.0, out=out)
    return _compose_q([("elementwise", quantize), ("matmul", gemm),
                       ("elementwise", epilogue)])


def quantize_with_accuracy_gate(
        model, eval_fn, *, floor: float,
        modes: tuple[str, ...] = ("int8", "float16"),
        input_shape: tuple[int, ...] | None = None,
        calibration: np.ndarray | None = None,
        dtype=np.float32):
    """Select the most aggressive quantization that honors ``a(n) > A``.

    ``eval_fn(compiled) -> float`` scores a candidate (the paper's
    accuracy ``a(n)``; any higher-is-better proxy works).  Candidate
    ``modes`` are tried in order; the first whose score strictly exceeds
    ``floor`` wins.  If none does, the float32 model is returned — the
    efficiency optimization is rejected rather than the constraint.

    Returns ``(compiled, report)`` where ``report`` records the float32
    reference score, every candidate's score, and the selection.
    """
    from .compiled import compile as _compile  # deferred: module cycle

    baseline = _compile(model, input_shape, dtype=dtype)
    report = {
        "floor": float(floor),
        "float32_accuracy": float(eval_fn(baseline)),
        "candidates": [],
        "selected": "float32",
    }
    for mode in modes:
        candidate = _compile(model, input_shape, dtype=dtype, quant=mode)
        if mode == "int8" and calibration is not None:
            candidate.calibrate(calibration)
        accuracy = float(eval_fn(candidate))
        passed = accuracy > floor
        report["candidates"].append(
            {"mode": mode, "accuracy": accuracy, "passed": passed,
             "calibrated": mode == "int8" and calibration is not None})
        if passed:
            report["selected"] = mode
            return candidate, report
    return baseline, report
