"""SPP-Net architecture grammar (Table 1 of the paper).

The paper describes each candidate with a compact grammar::

    C_{64,3,1} - P_{2,2} - C_{128,3,1} - P_{2,2} - C_{256,3,1} - P_{2,2}
        - SPP_{4,2,1} - F_{1024}

``C`` = convolution (number of filters, filter size, stride — the caption's
subscript order is normalized here to match §4.2, where the first-conv
*filter size* is the mutated quantity: 1/3/5/7/9), ``P`` = max pooling
(filter size, stride), ``SPP`` = spatial pyramid pooling (pyramid levels),
``F`` = fully-connected width.  This module is a dependency-free leaf so
both the trainable model builder (:mod:`repro.detect.sppnet`) and the IR
builder (:mod:`repro.graph.builder`) can share it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = [
    "ConvSpec",
    "PoolSpec",
    "SPPNetConfig",
    "TABLE1_MODELS",
    "TABLE1_PAPER_AP",
    "TABLE2_PAPER_LATENCY_MS",
]


@dataclass(frozen=True)
class ConvSpec:
    """One convolution layer: ``filters`` output channels, square ``kernel``."""

    filters: int
    kernel: int
    stride: int = 1

    def __post_init__(self) -> None:
        if self.filters < 1 or self.kernel < 1 or self.stride < 1:
            raise ValueError(f"invalid conv spec {self}")

    def grammar(self) -> str:
        return f"C_{{{self.filters},{self.kernel},{self.stride}}}"


@dataclass(frozen=True)
class PoolSpec:
    """One max-pooling layer: square ``kernel`` and ``stride``."""

    kernel: int
    stride: int

    def __post_init__(self) -> None:
        if self.kernel < 1 or self.stride < 1:
            raise ValueError(f"invalid pool spec {self}")

    def grammar(self) -> str:
        return f"P_{{{self.kernel},{self.stride}}}"


@dataclass(frozen=True)
class SPPNetConfig:
    """Full hyper-parameter configuration of one SPP-Net candidate.

    Attributes
    ----------
    convs / pools : alternating feature-engineering trunk (conv then pool).
    spp_levels : pyramid levels of the SPP layer, finest first.
    fc_sizes : widths of the fully-connected layers before the output heads.
    in_channels : input bands (4 for NAIP R,G,B,NIR chips).
    name : optional display name.
    """

    convs: tuple[ConvSpec, ...] = (
        ConvSpec(64, 3, 1),
        ConvSpec(128, 3, 1),
        ConvSpec(256, 3, 1),
    )
    pools: tuple[PoolSpec, ...] = (PoolSpec(2, 2), PoolSpec(2, 2), PoolSpec(2, 2))
    spp_levels: tuple[int, ...] = (4, 2, 1)
    fc_sizes: tuple[int, ...] = (1024,)
    in_channels: int = 4
    name: str = "SPP-Net"
    #: Extension axis (not in Table 1): insert BatchNorm after each conv.
    #: Inference latency is unaffected — BN folds into the preceding
    #: convolution's weights at deployment (standard constant folding), so
    #: the IR builder intentionally ignores this flag.
    use_batchnorm: bool = False

    def __post_init__(self) -> None:
        if len(self.convs) != len(self.pools):
            raise ValueError("convs and pools must alternate one-to-one")
        if not self.spp_levels or any(lv < 1 for lv in self.spp_levels):
            raise ValueError(f"invalid SPP levels {self.spp_levels}")
        if len(set(self.spp_levels)) != len(self.spp_levels):
            raise ValueError("SPP pyramid levels must be distinct")
        if not self.fc_sizes or any(s < 1 for s in self.fc_sizes):
            raise ValueError(f"invalid fc sizes {self.fc_sizes}")
        if self.in_channels < 1:
            raise ValueError("in_channels must be >= 1")

    # -- derived quantities ----------------------------------------------
    @property
    def trunk_out_channels(self) -> int:
        return self.convs[-1].filters

    @property
    def spp_features(self) -> int:
        """Fixed SPP output length: C * sum(level^2)."""
        return self.trunk_out_channels * sum(lv * lv for lv in self.spp_levels)

    def trunk_spatial_size(self, input_size: int) -> int:
        """Spatial size of the final feature map for a square input."""
        size = input_size
        for conv, pool in zip(self.convs, self.pools):
            size = (size - conv.kernel) // conv.stride + 1
            if size <= 0:
                raise ValueError(f"input {input_size} collapses at conv {conv}")
            size = (size - pool.kernel) // pool.stride + 1
            if size <= 0:
                raise ValueError(f"input {input_size} collapses at pool {pool}")
        return size

    def min_input_size(self) -> int:
        """Smallest square input for which the SPP layer is well defined."""
        need = max(self.spp_levels)
        lo, hi = 1, 4096
        while lo < hi:
            mid = (lo + hi) // 2
            try:
                ok = self.trunk_spatial_size(mid) >= need
            except ValueError:
                ok = False
            if ok:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def grammar(self) -> str:
        """Render the Table 1 grammar string for this configuration."""
        parts: list[str] = []
        for conv, pool in zip(self.convs, self.pools):
            parts.append(conv.grammar())
            parts.append(pool.grammar())
        parts.append("SPP_{" + ",".join(str(lv) for lv in self.spp_levels) + "}")
        parts.extend(f"F_{{{s}}}" for s in self.fc_sizes)
        return " - ".join(parts)

    def with_name(self, name: str) -> "SPPNetConfig":
        return replace(self, name=name)


def _table1(first_kernel: int, spp_first: int, fc: int, name: str) -> SPPNetConfig:
    return SPPNetConfig(
        convs=(ConvSpec(64, first_kernel, 1), ConvSpec(128, 3, 1), ConvSpec(256, 3, 1)),
        pools=(PoolSpec(2, 2), PoolSpec(2, 2), PoolSpec(2, 2)),
        spp_levels=(spp_first, 2, 1),
        fc_sizes=(fc,),
        name=name,
    )


#: The four candidate models of Table 1, keyed by the paper's row names.
TABLE1_MODELS: dict[str, SPPNetConfig] = {
    "Original SPP-Net": _table1(3, 4, 1024, "Original SPP-Net"),
    "SPP-Net #1": _table1(5, 4, 1024, "SPP-Net #1"),
    "SPP-Net #2": _table1(3, 5, 4096, "SPP-Net #2"),
    "SPP-Net #3": _table1(3, 5, 2048, "SPP-Net #3"),
}

#: Average precision reported in Table 1 (for EXPERIMENTS.md comparison).
TABLE1_PAPER_AP: dict[str, float] = {
    "Original SPP-Net": 0.9500,
    "SPP-Net #1": 0.9610,
    "SPP-Net #2": 0.9670,
    "SPP-Net #3": 0.9740,
}

#: (sequential, IOS-optimized) latency in ms reported in Table 2, batch 1.
TABLE2_PAPER_LATENCY_MS: dict[str, tuple[float, float]] = {
    "Original SPP-Net": (0.512, 0.268),
    "SPP-Net #1": (0.419, 0.379),
    "SPP-Net #2": (0.295, 0.236),
    "SPP-Net #3": (0.562, 0.427),
}
