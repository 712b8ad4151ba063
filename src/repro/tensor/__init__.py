"""repro.tensor — from-scratch deep learning substrate (PyTorch stand-in).

Reverse-mode autograd over NumPy, vectorized conv/pool/SPP kernels,
``torch.nn``-style modules, the paper's SGD optimizer, losses, gradient
checking, and checkpointing.  See DESIGN.md §2 for the substitution
rationale.
"""

from . import functional, init, losses, optim
from .gradcheck import gradcheck, numerical_gradient
from .modules import (
    AdaptiveMaxPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool2d,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
    SpatialPyramidPooling,
    default_module_rng,
    seed_module_rng,
)
from .serialization import load_checkpoint, load_state, save_checkpoint
from .tensor import (
    Tensor,
    as_tensor,
    default_dtype,
    is_grad_enabled,
    no_grad,
    set_default_dtype,
    unbroadcast,
)

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "unbroadcast",
    "set_default_dtype",
    "default_dtype",
    "functional",
    "init",
    "losses",
    "optim",
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
    "default_module_rng",
    "seed_module_rng",
    "gradcheck",
    "numerical_gradient",
    "save_checkpoint",
    "load_checkpoint",
    "load_state",
]
