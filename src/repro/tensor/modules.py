"""Layer/module abstraction over the autograd tensor core.

Mirrors the slice of ``torch.nn`` the paper's SPP-Net models need:
``Module`` (parameter registry, train/eval mode, state_dict), ``Conv2d``,
``MaxPool2d``, ``Linear``, ``ReLU``, ``Dropout``, ``Flatten``,
``Sequential``, and the paper-specific ``SpatialPyramidPooling`` layer.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from . import functional as F
from . import init
from .tensor import Tensor

__all__ = [
    "default_module_rng",
    "seed_module_rng",
    "Module",
    "Parameter",
    "Conv2d",
    "MaxPool2d",
    "AdaptiveMaxPool2d",
    "SpatialPyramidPooling",
    "Linear",
    "ReLU",
    "Sigmoid",
    "Dropout",
    "Flatten",
    "Sequential",
    "BatchNorm2d",
]


class Parameter(Tensor):
    """A Tensor that is registered as a learnable parameter of a Module."""

    def __init__(self, data, name: str | None = None, dtype=None) -> None:
        super().__init__(data, requires_grad=True, name=name, dtype=dtype)


def _factory_dtype(dtype) -> np.dtype:
    """A layer's ``dtype=`` (torch's factory keyword): ``None`` is the
    default dtype at construction time."""
    return np.dtype(Tensor.DEFAULT_DTYPE if dtype is None else dtype)


# Process-wide seeded stream for layers constructed without an explicit
# ``rng``.  A *shared* stream (rather than a fresh ``default_rng(0)`` per
# layer) is essential: per-layer fresh generators gave every same-shape
# layer byte-identical initial weights — perfectly correlated init and
# symmetric hidden units that gradient descent cannot break.
_module_rng = np.random.default_rng(0)


def default_module_rng() -> np.random.Generator:
    """The shared stream used when a layer gets no explicit ``rng``.

    Deterministic given construction order; call :func:`seed_module_rng`
    to restart it for reproducible model builds.
    """
    return _module_rng


def seed_module_rng(seed: int = 0) -> None:
    """Reset the shared default-initialization stream."""
    global _module_rng
    _module_rng = np.random.default_rng(seed)


class Module:
    """Base class with parameter registration and train/eval switching."""

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self.training = True

    # -- registration ---------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module
        object.__setattr__(self, name, module)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-learnable persistent state (e.g. BN running stats).

        Buffers are included in ``state_dict`` and restored by
        ``load_state_dict`` but receive no gradients.
        """
        self._buffers[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    def _set_buffer(self, name: str, value: np.ndarray) -> None:
        """Update a registered buffer in place-of-reference."""
        if name not in self._buffers:
            raise KeyError(f"unknown buffer {name!r}")
        self._buffers[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name, value in self._buffers.items():
            yield (f"{prefix}{name}", value)
        for mod_name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{mod_name}.")

    # -- traversal ------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        for _, p in self.named_parameters():
            yield p

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, p in self._parameters.items():
            yield (f"{prefix}{name}", p)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def num_parameters(self) -> int:
        """Total number of learnable scalar parameters."""
        return sum(p.size for p in self.parameters())

    # -- mode -----------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- state ----------------------------------------------------------
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        out = OrderedDict(
            (name, p.data.copy()) for name, p in self.named_parameters()
        )
        for name, value in self.named_buffers():
            out[name] = value.copy()
        return out

    def _module_by_path(self, path: list[str]) -> "Module":
        module: Module = self
        for part in path:
            module = module._modules[part]
        return module

    def load_state_dict(self, state: dict) -> None:
        own = dict(self.named_parameters())
        buffers = dict(self.named_buffers())
        missing = (set(own) | set(buffers)) - set(state)
        unexpected = set(state) - set(own) - set(buffers)
        if missing or unexpected:
            raise KeyError(f"state_dict mismatch: missing={sorted(missing)} "
                           f"unexpected={sorted(unexpected)}")
        for name, p in own.items():
            value = np.asarray(state[name], dtype=p.data.dtype)
            if value.shape != p.shape:
                raise ValueError(f"shape mismatch for {name}: {value.shape} vs {p.shape}")
            p.data = value.copy()
        for name in buffers:
            value = np.asarray(state[name])
            if value.shape != buffers[name].shape:
                raise ValueError(
                    f"shape mismatch for buffer {name}: {value.shape} vs "
                    f"{buffers[name].shape}"
                )
            *path, leaf = name.split(".")
            self._module_by_path(path)._set_buffer(leaf, value.copy())

    # -- call -----------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> Tensor:
        return self.forward(*args, **kwargs)

    def extra_repr(self) -> str:
        return ""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lines = [f"{type(self).__name__}({self.extra_repr()}"]
        for name, module in self._modules.items():
            child = repr(module).replace("\n", "\n  ")
            lines.append(f"  ({name}): {child}")
        return "\n".join(lines) + ")"


class Conv2d(Module):
    """2-D convolution layer (cross-correlation), NCHW."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: np.random.Generator | None = None, dtype=None) -> None:
        super().__init__()
        rng = rng if rng is not None else default_module_rng()
        dtype = _factory_dtype(dtype)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_uniform(shape, rng, dtype=dtype),
                                name="weight", dtype=dtype)
        self.bias = Parameter(np.zeros(out_channels, dtype), name="bias",
                              dtype=dtype) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)

    def extra_repr(self) -> str:
        return (f"{self.in_channels}, {self.out_channels}, "
                f"kernel_size={self.kernel_size}, stride={self.stride}, "
                f"padding={self.padding}")


class MaxPool2d(Module):
    """Max pooling layer."""

    def __init__(self, kernel_size: int, stride: int | None = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = kernel_size if stride is None else stride

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)

    def extra_repr(self) -> str:
        return f"kernel_size={self.kernel_size}, stride={self.stride}"


class AdaptiveMaxPool2d(Module):
    """Adaptive max pooling to a fixed square output grid."""

    def __init__(self, output_size: int) -> None:
        super().__init__()
        self.output_size = output_size

    def forward(self, x: Tensor) -> Tensor:
        return F.adaptive_max_pool2d(x, self.output_size)

    def extra_repr(self) -> str:
        return f"output_size={self.output_size}"


class SpatialPyramidPooling(Module):
    """SPP layer: fixed-length multi-scale pooling (He et al., 2015).

    ``levels`` is the pyramid, e.g. ``(4, 2, 1)`` produces a vector of
    ``C * (16 + 4 + 1)`` features for any input spatial size.  The paper's
    search space mutates the *first* (finest) level between 1 and 5.
    """

    def __init__(self, levels: tuple[int, ...]) -> None:
        super().__init__()
        if not levels or any(lv < 1 for lv in levels):
            raise ValueError(f"invalid pyramid levels {levels}")
        self.levels = tuple(levels)

    def output_features(self, channels: int) -> int:
        """Length of the pooled feature vector for ``channels`` input maps."""
        return channels * sum(lv * lv for lv in self.levels)

    def forward(self, x: Tensor) -> Tensor:
        return F.spatial_pyramid_pool(x, self.levels)

    def extra_repr(self) -> str:
        return f"levels={self.levels}"


class BatchNorm2d(Module):
    """Batch normalization over NCHW feature maps.

    Training mode normalizes with batch statistics (gradients flow
    through mean and variance via the autograd tape) and maintains
    exponential running statistics (float64 buffers whatever ``dtype``
    is); eval mode normalizes with the stored running statistics cast to
    the weights' dtype.  Provided for the NAS extension experiments — the
    paper's Table 1 architectures do not use it.
    """

    def __init__(self, num_features: int, eps: float = 1e-5,
                 momentum: float = 0.1, dtype=None) -> None:
        super().__init__()
        if num_features < 1:
            raise ValueError("num_features must be >= 1")
        dtype = _factory_dtype(dtype)
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features, dtype), name="weight", dtype=dtype)
        self.bias = Parameter(np.zeros(num_features, dtype), name="bias", dtype=dtype)
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4 or x.shape[1] != self.num_features:
            raise ValueError(
                f"expected (N, {self.num_features}, H, W) input, got {x.shape}"
            )
        if self.training:
            mean = x.mean(axis=(0, 2, 3), keepdims=True)
            centered = x - mean
            var = (centered * centered).mean(axis=(0, 2, 3), keepdims=True)
            with_stats = centered / (var + self.eps) ** 0.5
            m = self.momentum
            self._set_buffer(
                "running_mean",
                (1 - m) * self.running_mean + m * mean.data.reshape(-1),
            )
            n = x.shape[0] * x.shape[2] * x.shape[3]
            unbiased = var.data.reshape(-1) * (n / max(n - 1, 1))
            self._set_buffer("running_var",
                             (1 - m) * self.running_var + m * unbiased)
        else:
            mean = Tensor(self.running_mean.reshape(1, -1, 1, 1), dtype=self.weight.dtype)
            var = Tensor(self.running_var.reshape(1, -1, 1, 1), dtype=self.weight.dtype)
            with_stats = (x - mean) / (var + self.eps) ** 0.5
        w = self.weight.reshape(1, self.num_features, 1, 1)
        b = self.bias.reshape(1, self.num_features, 1, 1)
        return with_stats * w + b

    def extra_repr(self) -> str:
        return f"{self.num_features}, eps={self.eps}, momentum={self.momentum}"


class Linear(Module):
    """Affine layer ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None, dtype=None) -> None:
        super().__init__()
        rng = rng if rng is not None else default_module_rng()
        dtype = _factory_dtype(dtype)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.kaiming_uniform((out_features, in_features), rng, dtype=dtype),
            name="weight", dtype=dtype)
        self.bias = Parameter(np.zeros(out_features, dtype), name="bias",
                              dtype=dtype) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def extra_repr(self) -> str:
        return f"{self.in_features}, {self.out_features}"


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        self.p = p
        self.rng = rng if rng is not None else default_module_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.training, self.rng)

    def extra_repr(self) -> str:
        return f"p={self.p}"


class Flatten(Module):
    """Flatten all dimensions after the batch dimension."""

    def forward(self, x: Tensor) -> Tensor:
        return x.flatten(start_dim=1)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            self.register_module(str(i), layer)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)
