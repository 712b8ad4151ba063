"""Vectorized neural-network operators with hand-written gradients.

These are the compute kernels of the :mod:`repro.tensor` substrate.  All
spatial operators use the NCHW layout (batch, channels, height, width) and
are fully vectorized: convolution lowers to an im2col GEMM via
``numpy.lib.stride_tricks.sliding_window_view`` (the same lowering the
paper's GPU kernels use — cuDNN implicit GEMM), pooling reuses the window
view, and the backward passes scatter with k*k strided slice-adds instead
of per-element loops, following the HPC guidance of vectorizing every for
loop that scales with data size.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import Tensor, as_tensor, is_grad_enabled

__all__ = [
    "conv2d",
    "max_pool2d",
    "adaptive_max_pool2d",
    "spatial_pyramid_pool",
    "linear",
    "softmax",
    "log_softmax",
    "dropout",
    "conv_output_size",
    "pool_output_size",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution (floor convention)."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution output collapsed: size={size} kernel={kernel} "
            f"stride={stride} padding={padding}"
        )
    return out


def pool_output_size(size: int, kernel: int, stride: int) -> int:
    """Spatial output size of a pooling window (floor convention)."""
    out = (size - kernel) // stride + 1
    if out <= 0:
        raise ValueError(f"pool output collapsed: size={size} kernel={kernel} stride={stride}")
    return out


def _windows(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Strided (N, C, Ho, Wo, kh, kw) window view of an NCHW array."""
    view = sliding_window_view(x, (kh, kw), axis=(2, 3))
    return view[:, :, ::stride, ::stride]


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D cross-correlation, NCHW layout, im2col + GEMM implementation.

    Parameters
    ----------
    x : Tensor of shape (N, C, H, W)
    weight : Tensor of shape (F, C, kh, kw)
    bias : optional Tensor of shape (F,)
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    n, c, h, w = x.shape
    f, c_w, kh, kw = weight.shape
    if c != c_w:
        raise ValueError(f"channel mismatch: input has {c}, weight expects {c_w}")
    ho = conv_output_size(h, kh, stride, padding)
    wo = conv_output_size(w, kw, stride, padding)

    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding))) \
        if padding else x.data
    # The whole convolution runs in the promoted common dtype: when both
    # operands are already float32 no float64 round-trip happens anywhere
    # (im2col copy, GEMM, bias add), which is the fp32 inference fast path.
    dtype = np.result_type(x.data, weight.data)
    # im2col: (N, Ho, Wo, C*kh*kw), copied+cast in a single pass
    cols = _windows(xp, kh, kw, stride).transpose(0, 2, 3, 1, 4, 5)
    cols_mat = np.ascontiguousarray(cols, dtype=dtype).reshape(n * ho * wo, c * kh * kw)
    w_mat = weight.data.reshape(f, c * kh * kw)
    if w_mat.dtype != dtype:
        w_mat = w_mat.astype(dtype)
    out = np.empty((n * ho * wo, f), dtype=dtype)
    np.dot(cols_mat, w_mat.T, out=out)
    if bias is not None:
        np.add(out, bias.data, out=out)
    out_data = out.reshape(n, ho, wo, f).transpose(0, 3, 1, 2)

    def backward(grad: np.ndarray) -> None:
        # grad: (N, F, Ho, Wo) -> (N*Ho*Wo, F)
        g_mat = grad.transpose(0, 2, 3, 1).reshape(n * ho * wo, f)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g_mat.sum(axis=0))
        if weight.requires_grad:
            weight._accumulate((g_mat.T @ cols_mat).reshape(weight.shape))
        if x.requires_grad:
            dcols = (g_mat @ w_mat).reshape(n, ho, wo, c, kh, kw)
            # One contiguous layout change up front, then k*k strided adds
            # straight into the preallocated accumulator — the per-tap
            # slices below are views, so the loop allocates nothing.
            dcols = np.ascontiguousarray(
                dcols.transpose(0, 3, 4, 5, 1, 2)  # (N, C, kh, kw, Ho, Wo)
            )
            hp, wp = h + 2 * padding, w + 2 * padding
            dxp = np.zeros((n, c, hp, wp), dtype=grad.dtype)
            for i in range(kh):
                hi = i + stride * ho
                for j in range(kw):
                    wi = j + stride * wo
                    target = dxp[:, :, i:hi:stride, j:wi:stride]
                    np.add(target, dcols[:, :, i, j], out=target)
            if padding:
                dxp = dxp[:, :, padding:padding + h, padding:padding + w]
            x._accumulate(dxp)

    return Tensor._make(out_data, (x, weight) + ((bias,) if bias is not None else ()), backward)


def max_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Max pooling over non-overlapping or strided windows (NCHW)."""
    x = as_tensor(x)
    stride = kernel if stride is None else stride
    n, c, h, w = x.shape
    ho = pool_output_size(h, kernel, stride)
    wo = pool_output_size(w, kernel, stride)
    win = _windows(x.data, kernel, kernel, stride)  # (N,C,Ho,Wo,k,k)
    if not (is_grad_enabled() and x.requires_grad):
        # Inference: one max reduction over the strided window view — no
        # im2col copy, no argmax bookkeeping.
        return Tensor._make(win.max(axis=(-2, -1)), (x,), lambda grad: None)
    flat = win.reshape(n, c, ho, wo, kernel * kernel)
    arg = flat.argmax(axis=-1)
    out_data = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        # np.zeros (not zeros_like): x.data is often a non-contiguous
        # transposed conv output, and the flat scatter below needs a
        # C-contiguous dx so ravel() is a writable view, not a copy.
        dx = np.zeros(x.data.shape, dtype=x.data.dtype)
        ki, kj = np.divmod(arg, kernel)
        # Broadcastable index arrays instead of materialized meshgrids.
        nn = np.arange(n)[:, None, None, None]
        cc = np.arange(c)[None, :, None, None]
        rows = np.arange(ho)[None, None, :, None] * stride + ki
        cols_ = np.arange(wo)[None, None, None, :] * stride + kj
        if stride >= kernel:
            # Disjoint windows: every argmax cell is unique, so a direct
            # flat scatter replaces the slower unbuffered np.add.at.
            flat_idx = ((nn * c + cc) * h + rows) * w + cols_
            dx.ravel()[flat_idx.ravel()] = grad.ravel()
        else:
            np.add.at(dx, (nn, cc, rows, cols_), grad)
        x._accumulate(dx)

    return Tensor._make(out_data, (x,), backward)


def _adaptive_bounds(in_size: int, out_size: int) -> list[tuple[int, int]]:
    """PyTorch-convention adaptive pooling bin edges."""
    return [
        (int(np.floor(i * in_size / out_size)), int(np.ceil((i + 1) * in_size / out_size)))
        for i in range(out_size)
    ]


def _adaptive_gather_index(in_size: int, out_size: int) -> np.ndarray:
    """(out_size, max_bin) gather indices for adaptive pooling bins.

    Row ``i`` lists the input coordinates of bin ``i`` (PyTorch floor/ceil
    convention), right-padded by repeating the bin's last coordinate so
    every row has the width of the largest bin.  Repeats are harmless
    under a max reduction and let all bins be gathered in one fancy-index
    operation instead of a Python loop per bin.
    """
    i = np.arange(out_size)
    starts = (i * in_size) // out_size                      # floor(i*in/out)
    ends = -((-(i + 1) * in_size) // out_size)              # ceil((i+1)*in/out)
    max_bin = int((ends - starts).max())
    idx = starts[:, None] + np.arange(max_bin)[None, :]
    return np.minimum(idx, ends[:, None] - 1)


def adaptive_max_pool2d(x: Tensor, output_size: int) -> Tensor:
    """Adaptive max pooling to an ``output_size`` × ``output_size`` grid.

    This is the building block of the SPP layer: regardless of the input's
    spatial extent, the output is a fixed (N, C, n, n) map.  Bins follow the
    PyTorch floor/ceil convention so adjacent bins may overlap by one row.
    """
    x = as_tensor(x)
    n, c, h, w = x.shape
    if output_size < 1:
        raise ValueError("output_size must be >= 1")
    if h < output_size or w < output_size:
        raise ValueError(
            f"adaptive pool output {output_size} exceeds input spatial size {(h, w)}"
        )
    ridx = _adaptive_gather_index(h, output_size)  # (out, bh)
    cidx = _adaptive_gather_index(w, output_size)  # (out, bw)
    bh, bw = ridx.shape[1], cidx.shape[1]
    # One fancy-indexed gather materializes every bin at once:
    # (N, C, out, bh, out, bw), padded cells repeating in-bin values.
    gathered = x.data[:, :, ridx[:, :, None, None], cidx[None, None, :, :]]
    if not (is_grad_enabled() and x.requires_grad):
        return Tensor._make(gathered.max(axis=(3, 5)), (x,), lambda grad: None)
    flat = gathered.transpose(0, 1, 2, 4, 3, 5).reshape(
        n, c, output_size, output_size, bh * bw
    )
    arg = flat.argmax(axis=-1)
    out_data = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    bi, bj = np.divmod(arg, bw)
    grid = np.arange(output_size)
    argrows = ridx[grid[None, None, :, None], bi]
    argcols = cidx[grid[None, None, None, :], bj]

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        dx = np.zeros_like(x.data)
        nn = np.arange(n)[:, None, None, None]
        cc = np.arange(c)[None, :, None, None]
        np.add.at(dx, (nn, cc, argrows, argcols), grad)
        x._accumulate(dx)

    return Tensor._make(out_data, (x,), backward)


def spatial_pyramid_pool(x: Tensor, levels: tuple[int, ...]) -> Tensor:
    """Spatial pyramid pooling (He et al., 2015).

    Pools the feature map at every pyramid ``level`` (an adaptive max pool
    to a ``level`` × ``level`` grid), flattens each, and concatenates into a
    fixed-length vector of size ``C * sum(level**2)`` — independent of the
    input's H and W.  Each level is an independent branch; on the IR side
    this becomes the branched block that IOS parallelizes.
    """
    if not levels:
        raise ValueError("SPP needs at least one pyramid level")
    branches = [adaptive_max_pool2d(x, lv).flatten(start_dim=1) for lv in levels]
    if len(branches) == 1:
        return branches[0]
    return Tensor.concat(branches, axis=1)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` (PyTorch weight convention)."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - x.data.max(axis=axis, keepdims=True)
    e = shifted.exp()
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - x.data.max(axis=axis, keepdims=True)
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: scales kept activations by 1/(1-p) during training."""
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must be in [0, 1)")
    if not training or p == 0.0:
        return x
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * Tensor(mask)
