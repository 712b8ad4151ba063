"""Trainable SPP-Net drainage-crossing detector.

Builds the :class:`~repro.tensor.Module` network described by an
:class:`~repro.arch.SPPNetConfig`: a conv/pool feature-engineering trunk,
the spatial pyramid pooling layer, fully-connected layers, and a two-head
output — crossing/background classification plus normalized bounding-box
regression (the "classification and bounding box regression" of §4.2).

Thanks to SPP, the same weights accept any input size >= the
architecture's minimum (``SPPNetConfig.min_input_size``), which the
variable-input tests exercise.

The weights are float32, the precision the paper profiles and the
engine runs, whatever ``Tensor.DEFAULT_DTYPE`` is: each layer fills its float32 parameters straight
from the seed's float64 draws (:func:`repro.tensor.init.kaiming_uniform`),
so the values are the float64 build's rounded to float32 and no float64
copy of the weights is ever held.
"""

from __future__ import annotations

import numpy as np

from ..arch import SPPNetConfig
from ..tensor import (
    Conv2d,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Sequential,
    SpatialPyramidPooling,
    Tensor,
)
from ..tensor import functional as F

__all__ = ["SPPNetDetector"]


class SPPNetDetector(Module):
    """SPP-Net with classification + box-regression heads.

    forward(x) -> (class_logits (N, 2), boxes (N, 4) in [0, 1] cxcywh).
    """

    def __init__(self, config: SPPNetConfig, seed: int = 0) -> None:
        super().__init__()
        self.config = config
        rng = np.random.default_rng(seed)
        dtype = np.float32

        trunk_layers: list[Module] = []
        channels = config.in_channels
        for conv, pool in zip(config.convs, config.pools):
            trunk_layers.append(
                Conv2d(channels, conv.filters, conv.kernel, stride=conv.stride,
                       rng=rng, dtype=dtype)
            )
            if config.use_batchnorm:
                from ..tensor import BatchNorm2d

                trunk_layers.append(BatchNorm2d(conv.filters, dtype=dtype))
            trunk_layers.append(ReLU())
            trunk_layers.append(MaxPool2d(pool.kernel, pool.stride))
            channels = conv.filters
        self.trunk = Sequential(*trunk_layers)
        self.spp = SpatialPyramidPooling(config.spp_levels)

        fc_layers: list[Module] = []
        in_features = config.spp_features
        for width in config.fc_sizes:
            fc_layers.append(Linear(in_features, width, rng=rng, dtype=dtype))
            fc_layers.append(ReLU())
            in_features = width
        self.fc = Sequential(*fc_layers)
        self.cls_head = Linear(in_features, 2, rng=rng, dtype=dtype)
        self.box_head = Linear(in_features, 4, rng=rng, dtype=dtype)

    def features(self, x: Tensor) -> Tensor:
        """Fixed-length SPP feature vector for any input spatial size."""
        return self.spp(self.trunk(x))

    def forward(self, x: Tensor) -> tuple[Tensor, Tensor]:
        if x.ndim != 4:
            raise ValueError(f"expected (N, C, H, W) input, got shape {x.shape}")
        if x.shape[1] != self.config.in_channels:
            raise ValueError(
                f"expected {self.config.in_channels} bands, got {x.shape[1]}"
            )
        hidden = self.fc(self.features(x))
        class_logits = self.cls_head(hidden)
        boxes = self.box_head(hidden).sigmoid()  # normalized (cx, cy, w, h)
        return class_logits, boxes

    def predict_scores(self, x: Tensor) -> np.ndarray:
        """Crossing-confidence (softmax probability of class 1)."""
        class_logits, _ = self.forward(x)
        probs = F.softmax(class_logits, axis=1)
        return probs.data[:, 1].copy()
