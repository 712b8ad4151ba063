"""Kaiming-uniform weight initialization for the tensor substrate."""

from __future__ import annotations

import numpy as np

__all__ = ["kaiming_uniform", "fan_in_out"]


def fan_in_out(shape: tuple[int, ...]) -> tuple[int, int]:
    """Compute (fan_in, fan_out) for dense or convolutional weight shapes."""
    if len(shape) == 2:  # (out, in) linear
        return shape[1], shape[0]
    if len(shape) == 4:  # (F, C, kh, kw) conv
        receptive = shape[2] * shape[3]
        return shape[1] * receptive, shape[0] * receptive
    raise ValueError(f"unsupported weight shape {shape}")


def kaiming_uniform(shape: tuple[int, ...], rng: np.random.Generator,
                    gain: float = np.sqrt(2.0)) -> np.ndarray:
    """He-uniform initialization suited to ReLU networks."""
    fan_in, _ = fan_in_out(shape)
    bound = gain * np.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)
