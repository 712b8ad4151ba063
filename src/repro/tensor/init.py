"""Kaiming-uniform weight initialization for the tensor substrate."""

from __future__ import annotations

import numpy as np

__all__ = ["kaiming_uniform", "fan_in_out"]

#: float64 draws held at once by :func:`kaiming_uniform` (2 MB)
_DRAW_BLOCK = 1 << 18


def fan_in_out(shape: tuple[int, ...]) -> tuple[int, int]:
    """Compute (fan_in, fan_out) for dense or convolutional weight shapes."""
    if len(shape) == 2:  # (out, in) linear
        return shape[1], shape[0]
    if len(shape) == 4:  # (F, C, kh, kw) conv
        receptive = shape[2] * shape[3]
        return shape[1] * receptive, shape[0] * receptive
    raise ValueError(f"unsupported weight shape {shape}")


def kaiming_uniform(shape: tuple[int, ...], rng: np.random.Generator,
                    gain: float = np.sqrt(2.0),
                    dtype=np.float64) -> np.ndarray:
    """He-uniform initialization suited to ReLU networks.

    The result is ``dtype`` from the start: the float64 draws are made
    in blocks of whole rows (as many as fit in ``_DRAW_BLOCK`` values,
    at least one) and cast into it, so a float32 weight never has a
    float64 twin (120 MB for SPP-Net #3's first FC layer).  The blocks
    consume the generator's stream in order, so the values are the
    one-shot ``rng.uniform(-bound, bound, size=shape)`` cast to
    ``dtype``, and the generator ends in the same state.
    """
    fan_in, _ = fan_in_out(shape)
    bound = gain * np.sqrt(3.0 / fan_in)
    out = np.empty(shape, dtype=dtype)
    width = int(np.prod(shape[1:]))
    rows = out.reshape(shape[0], width)
    step = max(1, _DRAW_BLOCK // max(1, width))
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        block[...] = rng.uniform(-bound, bound, size=block.shape)
    return out
