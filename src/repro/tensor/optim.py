"""The optimizer of the paper's training loop.

The paper trains all candidates with SGD (lr 0.005, weight decay 5e-4,
momentum 0.9, batch 20); :class:`SGD` implements exactly the PyTorch
semantics of that configuration (decoupled L2 added to the gradient,
classic momentum buffer).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .modules import Parameter

__all__ = ["SGD"]


class SGD:
    """Stochastic gradient descent with momentum and L2 weight decay.

    Update rule (PyTorch convention)::

        g   = grad + weight_decay * w
        buf = momentum * buf + g
        w  -= lr * buf
    """

    def __init__(self, params: Iterable[Parameter], lr: float = 0.005,
                 momentum: float = 0.9, weight_decay: float = 0.0005) -> None:
        self.params: list[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._buffers: list[np.ndarray | None] = [None] * len(self.params)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            if self.momentum:
                buf = self._buffers[i]
                buf = g.copy() if buf is None else self.momentum * buf + g
                self._buffers[i] = buf
                g = buf
            if not p.data.flags.writeable:
                p.data = p.data.copy()  # shared read-only with an engine
            p.data -= self.lr * g
