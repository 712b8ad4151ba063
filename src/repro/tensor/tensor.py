"""Reverse-mode automatic differentiation over NumPy arrays.

This module is the core of :mod:`repro.tensor`, the from-scratch deep
learning substrate that stands in for PyTorch in this reproduction.  A
:class:`Tensor` wraps an ``np.ndarray`` and records the operations applied
to it on an implicit tape (each result tensor keeps references to its
parents and a closure that accumulates gradients into them).  Calling
:meth:`Tensor.backward` performs a topological sort of the tape and runs
the closures in reverse order.

Design notes
------------
* All arithmetic is broadcasting-aware; gradients flowing into a
  broadcast operand are reduced back to the operand's shape by
  :func:`unbroadcast`.
* Gradients are plain ``np.ndarray`` objects (not Tensors): this
  reproduction never needs higher-order derivatives, and first-order-only
  keeps the hot paths vectorized and allocation-light.
* A tensor built from data takes ``Tensor.DEFAULT_DTYPE`` (``float64``,
  for robust gradient checking) unless it is given a ``dtype``; training
  code may switch the default to ``float32`` with :func:`set_default_dtype`.
* An op's result takes its tensor operands' promoted dtype, and a
  non-tensor operand (a Python scalar, an array) takes the tensor
  operand's dtype, as in torch.  So a float32 model fed float32 inputs
  runs in float32 whatever the default is.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "unbroadcast",
    "as_tensor",
    "set_default_dtype",
    "default_dtype",
]


_GRAD_ENABLED = True


class no_grad:
    """Context manager disabling tape construction (inference mode).

    Mirrors ``torch.no_grad()``: inside the block, results of operations
    on tensors do not require gradients and record no parents, which keeps
    inference memory flat.
    """

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradient information."""
    return _GRAD_ENABLED


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after NumPy broadcasting.

    Summation happens over (a) leading axes that were added by
    broadcasting and (b) axes where the original dimension was 1 but the
    broadcast result is larger.
    """
    if grad.shape == shape:
        return grad
    # Remove extra leading dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Collapse broadcast singleton dimensions.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy-backed tensor participating in reverse-mode autodiff."""

    DEFAULT_DTYPE = np.float64

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        name: str | None = None,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
        dtype=None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data, dtype=self.DEFAULT_DTYPE if dtype is None else dtype)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad: bool = bool(requires_grad) and _GRAD_ENABLED
        self._parents: tuple[Tensor, ...] = _parents if self.requires_grad or _parents else ()
        self._backward: Callable[[np.ndarray], None] | None = _backward
        self.name = name

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, *shape: int, requires_grad: bool = False) -> "Tensor":
        return cls(np.zeros(shape, dtype=cls.DEFAULT_DTYPE), requires_grad=requires_grad)

    @classmethod
    def ones(cls, *shape: int, requires_grad: bool = False) -> "Tensor":
        return cls(np.ones(shape, dtype=cls.DEFAULT_DTYPE), requires_grad=requires_grad)

    @classmethod
    def randn(cls, *shape: int, rng: np.random.Generator | None = None,
              requires_grad: bool = False) -> "Tensor":
        rng = rng if rng is not None else np.random.default_rng()
        return cls(rng.standard_normal(shape), requires_grad=requires_grad)

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying array (a view, not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but detached from the tape."""
        return Tensor(self.data, requires_grad=False, dtype=self.dtype)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # tape machinery
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a result tensor, recording the tape edge when enabled.

        The result takes the promoted dtype of its operands.
        """
        dtype = np.result_type(*(p.data.dtype for p in parents))
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        if not requires:
            return Tensor(data, dtype=dtype)
        return Tensor(data, requires_grad=True, _parents=tuple(parents),
                      _backward=backward, dtype=dtype)

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            # Copy so that subsequent in-place accumulations never alias a
            # buffer another node still reads.
            self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | float | None = None) -> None:
        """Backpropagate from this tensor through the recorded tape."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("grad must be supplied for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).astype(self.data.dtype)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited and parent.requires_grad:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = _operand(other, self)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-_operand(other, self))

    def __rsub__(self, other) -> "Tensor":
        return _operand(other, self) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = _operand(other, self)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = _operand(other, self)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    unbroadcast(-grad * self.data / (other.data**2), other.shape)
                )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return _operand(other, self) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = _operand(other, self)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    g = (np.outer(grad, other.data) if grad.ndim == 1
                         else grad[..., None] * other.data)
                else:
                    g = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(unbroadcast(np.asarray(g), self.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    g = (np.outer(self.data, grad) if grad.ndim == 1
                         else self.data[..., None] @ grad[..., None, :])
                else:
                    g = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate(unbroadcast(np.asarray(g), other.shape))

        return Tensor._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # unary math
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.sign(self.data))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = np.where(mask, self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % self.ndim for a in axes)
                for a in sorted(axes):
                    g = np.expand_dims(g, a)
            self._accumulate(np.broadcast_to(g, self.shape).astype(self.data.dtype))

        return Tensor._make(np.asarray(out_data), (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            expanded = self.data.max(axis=axis, keepdims=True)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis % self.ndim)
            mask = self.data == expanded
            # Split gradient evenly among ties to keep the op well defined.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(np.broadcast_to(g, self.shape) * mask / counts)

        return Tensor._make(np.asarray(out_data), (self,), backward)

    # ------------------------------------------------------------------
    # shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(self.shape))

        return Tensor._make(out_data, (self,), backward)

    def flatten(self, start_dim: int = 0) -> "Tensor":
        lead = self.shape[:start_dim]
        return self.reshape(*lead, -1)

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return Tensor._make(np.asarray(out_data), (self,), backward)

    def pad2d(self, padding: int | tuple[int, int]) -> "Tensor":
        """Zero-pad the last two (spatial) dimensions symmetrically."""
        ph, pw = (padding, padding) if isinstance(padding, int) else padding
        if ph == 0 and pw == 0:
            return self
        pad_spec = [(0, 0)] * (self.ndim - 2) + [(ph, ph), (pw, pw)]
        out_data = np.pad(self.data, pad_spec)
        sl = tuple([slice(None)] * (self.ndim - 2) + [slice(ph, ph + self.shape[-2]),
                                                      slice(pw, pw + self.shape[-1])])

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad[sl])

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # combination
    # ------------------------------------------------------------------
    @staticmethod
    def concat(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [as_tensor(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            for t, start, end in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    sl = [slice(None)] * grad.ndim
                    sl[axis] = slice(int(start), int(end))
                    t._accumulate(grad[tuple(sl)])

        return Tensor._make(out_data, tuple(tensors), backward)

    @staticmethod
    def stack(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [as_tensor(t) for t in tensors]
        out_data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad: np.ndarray) -> None:
            slices = np.moveaxis(grad, axis, 0)
            for t, g in zip(tensors, slices):
                if t.requires_grad:
                    t._accumulate(g)

        return Tensor._make(out_data, tuple(tensors), backward)

    # comparison operators return plain boolean arrays (no gradient flows)
    def __gt__(self, other):
        return self.data > (other.data if isinstance(other, Tensor) else other)

    def __lt__(self, other):
        return self.data < (other.data if isinstance(other, Tensor) else other)

    def __ge__(self, other):
        return self.data >= (other.data if isinstance(other, Tensor) else other)

    def __le__(self, other):
        return self.data <= (other.data if isinstance(other, Tensor) else other)


def as_tensor(value) -> Tensor:
    """Coerce ``value`` into a :class:`Tensor` (no copy if already one)."""
    return value if isinstance(value, Tensor) else Tensor(value)


def _operand(value, like: Tensor) -> Tensor:
    """``value`` as the other operand of ``like``'s binary op: a tensor
    as it is, anything else in ``like``'s dtype, so a scalar never
    promotes a float32 tensor."""
    return value if isinstance(value, Tensor) else Tensor(value, dtype=like.dtype)


def set_default_dtype(dtype) -> type:
    """Set the dtype newly-created tensors use; returns the previous one.

    It is process-wide and read when a tensor or a layer without an
    explicit ``dtype=`` is built.  ``float64`` (the default) is what
    gradient checking needs; the training loops switch to ``float32``
    around a run, so their inputs and loss tensors match the detector's
    weights.  It does not set a model's dtype: ``SPPNetDetector`` builds
    float32 weights under any default, and eager inference runs in the
    weights' dtype (``repro.detect.predict``).
    """
    previous = Tensor.DEFAULT_DTYPE
    dtype = np.dtype(dtype).type
    if dtype not in (np.float32, np.float64):
        raise ValueError(f"unsupported default dtype {dtype}")
    Tensor.DEFAULT_DTYPE = dtype
    return previous


def default_dtype() -> type:
    """The dtype new tensors are created with."""
    return Tensor.DEFAULT_DTYPE
