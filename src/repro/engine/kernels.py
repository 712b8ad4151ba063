"""Inference kernels for the compiled engine.

All kernels operate on *prebound* array views into the arena (shapes are
static per compiled program, so window views, reshapes, and gather
indices are constructed once at bind time) and write through ``out=`` —
the hot path performs no Python-level tape bookkeeping and no transient
allocations beyond NumPy's internal GEMM workspace.

Layout convention: spatial activations live in the arena as **NHWC**.
An im2col GEMM produces ``(N*Ho*Wo, F)`` rows, which reshape for free to
``(N, Ho, Wo, F)`` — NHWC — and ``sliding_window_view`` over the H/W
axes of an NHWC tensor yields trailing ``(C, kh, kw)`` window dims, the
exact row layout of a ``(C*kh*kw, F)`` packed weight matrix.  Keeping
NHWC end-to-end therefore removes the two transposed copies per
convolution that the eager path pays.  Flatten steps reorder to the
eager channel-major order so fully-connected weights apply unchanged.
"""

from __future__ import annotations

import time as _time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "pack_conv_weight",
    "pack_linear_weight",
    "adaptive_bins",
    "CONV_VARIANTS",
    "conv_variant",
    "conv_out_hw",
    "pooled_extent",
    "conv_scratch_elems",
    "bind_conv",
    "linear",
    "maxpool_shifted",
    "shifted_views",
    "pooled_to_flat",
    "adaptive_pool_nhwc",
    "relu_",
    "sigmoid_into",
    "softmax_rows",
    "concat_rows",
    "strided_windows",
]

#: Output rows per block of the tiled implicit-GEMM variant.  Even (so
#: a fused 2x2/s2 pool consumes whole row pairs) and small enough that a
#: block's im2col columns stay L2-resident on the deployment shapes.
TILE_ROWS = 4

#: The conv kernels :func:`bind_conv` can bind; ``im2col`` is the
#: reference the tiled kernel is tested against.
CONV_VARIANTS = ("im2col", "im2col_tiled")

#: Largest GEMM depth ``c_in * k * k`` that binds the tiled kernel.
#: Measured per layer (table in docs/engine.md "Kernel selection",
#: reproduced by ``benchmarks/bench_engine.py``): a shallow conv is
#: gather-bound, so on the 4-band first conv (k = 1..9, depth 4..324)
#: tiling takes 0.57-0.91x of im2col's time at batch 8 and 20 and is a
#: near-tie at batch 1; on the deep 64->128 / 128->256 layers (depth
#: 576 / 1152) it ties at best and is up to 1.32x slower.  No supported
#: layer falls between 324 and 576.
TILED_MAX_DEPTH = 324


def conv_variant(c_in: int, kernel: int) -> str:
    """The kernel a conv binds: a pure function of its static geometry.

    Every process, batch size and pool worker computes the same answer,
    which is what makes parallel scans byte-identical to sequential
    ones.
    """
    if c_in * kernel * kernel <= TILED_MAX_DEPTH:
        return "im2col_tiled"
    return "im2col"


# -- weight packing ------------------------------------------------------

def pack_conv_weight(weight: np.ndarray, bias: np.ndarray | None,
                     dtype: np.dtype) -> np.ndarray:
    """``(F, C, kh, kw)`` [+ bias] -> contiguous ``(kh*kw*C [+1], F)``.

    Window-major row order (kh, kw, C): the matching im2col gather then
    copies runs of ``kw * C`` contiguous input elements per window row,
    instead of strided element-at-a-time picks in the conventional
    channel-major order — a ~6x faster column fill on NHWC activations.

    A bias becomes one extra weight row matched by a ones column in the
    im2col matrix, so the GEMM adds it for free instead of a separate
    full-size broadcast pass over the output.
    """
    rows = weight.transpose(2, 3, 1, 0).reshape(-1, weight.shape[0])
    if bias is not None:
        rows = np.vstack([rows, bias[None, :]])
    return np.array(rows, dtype=dtype, order="C")


def pack_linear_weight(array: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """A Linear weight ``(out, in)`` or bias ``(out,)``, shared or copied.

    :func:`linear` multiplies the module's own layout from the left, so
    an array that already has ``dtype``, is C-contiguous and owns its
    data (``base is None``) is used as it is and frozen
    (``writeable = False``): one copy of the FC per process (60 MB on
    SPP-Net #3), and an in-place edit of the module after compile raises
    instead of reaching the snapshot.  Any other array (a cast, a view)
    becomes a fresh contiguous copy and the module stays writable.
    """
    if array.dtype == dtype and array.flags.c_contiguous and array.base is None:
        array.flags.writeable = False
        return array
    return np.array(array, dtype=dtype, order="C")


def conv_out_hw(h: int, w: int, k: int, stride: int,
                pad: int) -> tuple[int, int]:
    """Spatial output dims of a convolution."""
    return ((h + 2 * pad - k) // stride + 1,
            (w + 2 * pad - k) // stride + 1)


def pooled_extent(ho: int, wo: int) -> tuple[int, int]:
    """Rows and columns of an ``(ho, wo)`` conv output that a floor-mode
    2x2/s2 pool reads: a trailing odd row or column feeds no pool window,
    so a fused ``conv_pool`` never gathers or multiplies it."""
    return ho - ho % 2, wo - wo % 2


def _tile_rows(ho: int, pool: bool) -> int:
    """Block height of the tiled variant (even when a pool is fused)."""
    if pool:
        return min(TILE_ROWS, max(2, ho - ho % 2))
    return min(TILE_ROWS, ho)


def conv_scratch_elems(variant: str, *, batch: int, h: int, w: int,
                       c_in: int, out_channels: int, kernel: int,
                       stride: int, padding: int, bias: bool,
                       pool: bool) -> int:
    """Per-sample scratch elements a conv variant needs at ``batch``.

    The memory planner multiplies by ``batch``, so buffers that do not
    scale with the batch (the tiled variant's block buffers) are
    amortized with a ceiling division.
    """
    ho, wo = conv_out_hw(h, w, kernel, stride, padding)
    if pool:
        ho, wo = pooled_extent(ho, wo)
    f = out_channels
    width = c_in * kernel * kernel + (1 if bias else 0)
    pad_elems = ((h + 2 * padding) * (w + 2 * padding) * c_in
                 if padding else 0)
    if variant == "im2col":
        elems = ho * wo * width + pad_elems
        if pool:
            elems += ho * wo * f  # conv output staged before the pool
        return elems
    if variant == "im2col_tiled":
        br = _tile_rows(ho, pool)
        total = br * wo * width
        if pool:
            total += br * wo * f + (br // 2) * wo * f
        return -(-total // batch) + pad_elems
    raise ValueError(f"unknown conv variant {variant!r}")


def adaptive_bins(in_size: int, out_size: int) -> tuple[np.ndarray, int]:
    """Gather indices for adaptive max pooling, PyTorch bin convention.

    Returns ``(idx, max_bin)`` where ``idx[i, j]`` is the ``j``-th source
    index of output bin ``i`` (bins are ``[floor(i*n/out), ceil((i+1)*n/out))``).
    Ragged bins are padded by clamping to the bin's last element —
    duplicates are harmless under ``max``.
    """
    i = np.arange(out_size)
    starts = (i * in_size) // out_size
    ends = -((-(i + 1) * in_size) // out_size)
    max_bin = int((ends - starts).max())
    idx = starts[:, None] + np.arange(max_bin)[None, :]
    return np.minimum(idx, ends[:, None] - 1), max_bin


def strided_windows(x: np.ndarray, k: int, stride: int) -> np.ndarray:
    """``(N, H, W, C)`` -> window-major view ``(N, Ho, Wo, k, k, C)``.

    The trailing ``(k, k, C)`` dims have strides ``(W*C, C, 1)``, so the
    last two flatten to contiguous runs of ``k * C`` elements — the
    layout :func:`pack_conv_weight` expects and the one ``np.copyto``
    streams fastest.
    """
    win = sliding_window_view(x, (k, k), axis=(1, 2))
    return win[:, ::stride, ::stride].transpose(0, 1, 2, 4, 5, 3)


def shifted_views(x: np.ndarray, k: int, stride: int,
                  ho: int, wo: int) -> list[np.ndarray]:
    """The ``k*k`` strided NHWC views whose elementwise max is the pooled
    output — each view keeps C contiguous, unlike a window-axis reduce."""
    return [
        x[:, i:i + stride * (ho - 1) + 1:stride,
          j:j + stride * (wo - 1) + 1:stride, :]
        for i in range(k) for j in range(k)
    ]


# -- compute kernels -----------------------------------------------------

def linear(in2d: np.ndarray, w_pack: np.ndarray, bias: np.ndarray | None,
           out2d: np.ndarray, relu: bool, stage: np.ndarray) -> None:
    """Fused affine(+relu): ``out = max(x @ W.T + b, 0)``.

    ``W @ x.T`` lands in ``stage`` (``(out, rows)``), then ``stage.T + b``
    in the row-major ``out2d`` the next layers read (fed the
    feature-major stage itself, they compute other bits).  Bitwise
    ``x @ W.T`` with ``W.T`` packed contiguous, in 0.55-0.65x its time
    on the Table-1 heads at 4-20 rows (docs/engine.md, "FC
    orientation").  Every input is read before ``out2d`` is written, so
    ``out2d`` may share memory with ``in2d`` (the planner's late write),
    never with ``stage``.
    """
    np.dot(w_pack, in2d.T, out=stage)
    if bias is not None:
        np.add(stage.T, bias, out=out2d)
    else:
        np.copyto(out2d, stage.T)
    if relu:
        np.maximum(out2d, 0.0, out=out2d)


def maxpool_shifted(views: list[np.ndarray], out: np.ndarray) -> None:
    """Elementwise max of the :func:`shifted_views` into ``out``."""
    np.copyto(out, views[0])
    for view in views[1:]:
        np.maximum(out, view, out=out)


def pooled_to_flat(pooled_nhwc: np.ndarray, out_nchw: np.ndarray) -> None:
    """Reorder pooled NHWC into the flat output's channel-major NCHW view."""
    np.copyto(out_nchw, pooled_nhwc.transpose(0, 3, 1, 2))


def adaptive_pool_nhwc(x: np.ndarray, ridx: np.ndarray, cidx: np.ndarray,
                       out: np.ndarray) -> None:
    """Adaptive max pool NHWC ``(N, H, W, C)`` -> ``(N, out, out, C)``.

    When bins tile the input exactly, a contiguous reshape reduces with
    zero gather cost; otherwise clamped gather indices fetch (possibly
    overlapping) bins.
    """
    n, h, w, c = x.shape
    lv = out.shape[1]
    if h % lv == 0 and w % lv == 0:
        x.reshape(n, lv, h // lv, lv, w // lv, c).max(axis=(2, 4), out=out)
    else:
        # gathered: (N, lv, bh, lv, bw, C)
        gathered = x[:, ridx[:, :, None, None], cidx[None, None, :, :], :]
        gathered.max(axis=(2, 4), out=out)


def relu_(x: np.ndarray, out: np.ndarray) -> None:
    np.maximum(x, 0.0, out=out)


def sigmoid_into(x: np.ndarray, out: np.ndarray) -> None:
    np.negative(x, out=out)
    # exp(-x) overflows to inf below about -88 in float32, and 1 / inf
    # is the right answer (0.0): nothing to warn about
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    np.add(out, 1.0, out=out)
    np.reciprocal(out, out=out)


def softmax_rows(x: np.ndarray, out: np.ndarray) -> None:
    np.subtract(x, x.max(axis=1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True)


def concat_rows(parts: list[np.ndarray], out: np.ndarray, axis: int) -> None:
    offset = 0
    for part in parts:
        width = part.shape[axis]
        sl = [slice(None)] * out.ndim
        sl[axis] = slice(offset, offset + width)
        np.copyto(out[tuple(sl)], part)
        offset += width


# -- conv variant binders ------------------------------------------------
#
# Each binder closes over prebound views and returns ``fn(acc=None)``.
# With ``acc`` a dict, per-phase wall time is accumulated under the
# profiling taxonomy (gather/staging -> "memops", arithmetic -> "conv",
# fused pooling -> "pooling") so execute_timed() can attribute fused kernels
# at sub-step granularity; with ``acc=None`` the phase list runs with no
# timing overhead.

def _compose(phases: list[tuple[str, object]]):
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


def _pad_phase(src: np.ndarray, scratch: np.ndarray, offset: int, pad: int):
    """Stage ``src`` into a zero-bordered buffer; returns (phase, padded,
    next offset).  Slots recycle between steps, so the border is re-zeroed
    every call (one cheap fill beats four edge writes in NumPy)."""
    n, h, w, c = src.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    padded = scratch[offset:offset + n * hp * wp * c].reshape(n, hp, wp, c)
    interior = padded[:, pad:pad + h, pad:pad + w]

    def stage(padded=padded, interior=interior, src=src):
        padded.fill(0.0)
        np.copyto(interior, src)
    return ("memops", stage), padded, offset + n * hp * wp * c


def _pool2x2_views(stage: np.ndarray, ph: int, pw: int):
    """The four shifted views of a conv-output staging tensor whose
    elementwise max is the fused 2x2/s2 pooled output."""
    return shifted_views(stage, 2, 2, ph, pw)


def _conv_windows(src, scratch, k, stride, pad, pool, phases):
    """The ``(N, Ho, Wo, k, k, C)`` window view a conv gathers from
    (staged through a zero-bordered copy when padded, cut to the
    :func:`pooled_extent` when a pool is fused) and the scratch offset
    past the staging buffer."""
    offset = 0
    if pad:
        phase, src, offset = _pad_phase(src, scratch, offset, pad)
        phases.append(phase)
    win = strided_windows(src, k, stride)
    if pool is not None:
        ho, wo = pooled_extent(win.shape[1], win.shape[2])
        win = win[:, :ho, :wo]
    return win, offset


def _bind_conv_im2col(src, out, scratch, w_pack, k, stride, pad, relu, pool):
    n, c = src.shape[0], src.shape[-1]
    f = out.shape[-1]
    kkc = c * k * k
    width = w_pack.shape[0]
    has_bias = width == kkc + 1
    phases: list[tuple[str, object]] = []
    win, offset = _conv_windows(src, scratch, k, stride, pad, pool, phases)
    ho, wo = win.shape[1], win.shape[2]
    cols2d = scratch[offset:offset + n * ho * wo * width].reshape(
        n * ho * wo, width)
    offset += n * ho * wo * width
    cols = cols2d[:, :kkc].reshape(n, ho, wo, k, k, c)
    assert np.shares_memory(cols, cols2d)  # axis-split reshape never copies
    ones_col = cols2d[:, -1] if has_bias else None

    def gather(win=win, cols=cols, ones_col=ones_col):
        np.copyto(cols, win)
        if ones_col is not None:
            ones_col.fill(1.0)
    phases.append(("memops", gather))

    if pool is None:
        out2d = out.reshape(n * ho * wo, f)

        def gemm(cols2d=cols2d, w_pack=w_pack, out2d=out2d, relu=relu):
            np.dot(cols2d, w_pack, out=out2d)
            if relu:
                np.maximum(out2d, 0.0, out=out2d)
        phases.append(("conv", gemm))
        return _compose(phases)

    stage = scratch[offset:offset + n * ho * wo * f].reshape(n, ho, wo, f)
    stage2d = stage.reshape(n * ho * wo, f)

    def gemm(cols2d=cols2d, w_pack=w_pack, stage2d=stage2d):
        np.dot(cols2d, w_pack, out=stage2d)
    phases.append(("conv", gemm))

    ph, pw = out.shape[1], out.shape[2]
    views = _pool2x2_views(stage, ph, pw)

    def pool_fn(views=views, out=out, relu=relu):
        maxpool_shifted(views, out)
        if relu:
            np.maximum(out, 0.0, out=out)
    phases.append(("pooling", pool_fn))
    return _compose(phases)


def _bind_conv_tiled(src, out, scratch, w_pack, k, stride, pad, relu, pool):
    n, c = src.shape[0], src.shape[-1]
    f = out.shape[-1]
    kkc = c * k * k
    width = w_pack.shape[0]
    has_bias = width == kkc + 1
    phases: list[tuple[str, object]] = []
    win, offset = _conv_windows(src, scratch, k, stride, pad, pool, phases)
    ho, wo = win.shape[1], win.shape[2]
    br = _tile_rows(ho, pool is not None)

    bcols = scratch[offset:offset + br * wo * width].reshape(br * wo, width)
    offset += br * wo * width
    ones_col = bcols[:, -1] if has_bias else None
    if pool is not None:
        bstage = scratch[offset:offset + br * wo * f].reshape(br, wo, f)
        offset += br * wo * f
        rowbuf = scratch[offset:offset + (br // 2) * wo * f].reshape(
            br // 2, wo, f)
        offset += (br // 2) * wo * f

    # Prebind every (batch item, row block): tuples of views, so the hot
    # loop is pure NumPy calls over L2-resident buffers — the full
    # (N*Ho*Wo, C*k*k) im2col matrix never materializes.
    blocks = []
    for b in range(n):
        for r0 in range(0, ho, br):
            r1 = min(r0 + br, ho)
            rows = r1 - r0
            cb = bcols[:rows * wo]
            cb_win = cb[:, :kkc].reshape(1, rows, wo, k, k, c)
            src_win = win[b:b + 1, r0:r1]
            if pool is None:
                tgt = out[b].reshape(ho * wo, f)[r0 * wo:r1 * wo]
                blocks.append((cb, cb_win, src_win, tgt))
            else:
                # ho and br are even here: a block is whole row pairs
                blocks.append((
                    cb, cb_win, src_win,
                    bstage.reshape(br * wo, f)[:rows * wo],
                    bstage[0:rows:2], bstage[1:rows:2], rowbuf[:rows // 2],
                    out[b, r0 // 2:r1 // 2],
                ))

    if pool is None:
        def run(blocks=blocks, w_pack=w_pack, ones_col=ones_col,
                out=out, relu=relu):
            if ones_col is not None:
                ones_col.fill(1.0)
            for cb, cb_win, src_win, tgt in blocks:
                np.copyto(cb_win, src_win)
                np.dot(cb, w_pack, out=tgt)
            if relu:
                np.maximum(out, 0.0, out=out)
    else:
        def run(blocks=blocks, w_pack=w_pack, ones_col=ones_col,
                out=out, relu=relu):
            if ones_col is not None:
                ones_col.fill(1.0)
            for (cb, cb_win, src_win, gtgt, even, odd, rbuf,
                 ptgt) in blocks:
                np.copyto(cb_win, src_win)
                np.dot(cb, w_pack, out=gtgt)
                np.maximum(even, odd, out=rbuf)
                np.maximum(rbuf[:, 0::2], rbuf[:, 1::2], out=ptgt)
            if relu:
                np.maximum(out, 0.0, out=out)
    phases.append(("conv", run))
    return _compose(phases)


def bind_conv(variant: str, *, src: np.ndarray, out: np.ndarray,
              scratch: np.ndarray, k: int, stride: int, pad: int,
              relu: bool, w_pack: np.ndarray,
              pool: tuple[int, int] | None = None):
    """Bind one conv (optionally with a fused 2x2/s2 max pool) to views.

    variant : 'im2col' (one-shot gather + GEMM) or 'im2col_tiled'
              (block-row implicit GEMM, cache-resident columns).
    src     : NHWC input view; out: NHWC output view (pooled dims when
              ``pool`` is set); scratch: flat per-program scratch slice
              sized by :func:`conv_scratch_elems` for this variant.
    w_pack  : im2col-packed weights (bias ones-column layout).
    Returns ``fn(acc=None)`` — see the phase-attribution note above.
    """
    if pool is not None and tuple(pool) != (2, 2):
        raise ValueError("only 2x2/stride-2 pools fuse into conv kernels")
    if variant == "im2col":
        return _bind_conv_im2col(src, out, scratch, w_pack, k, stride, pad,
                                 relu, pool)
    if variant == "im2col_tiled":
        return _bind_conv_tiled(src, out, scratch, w_pack, k, stride, pad,
                                relu, pool)
    raise ValueError(f"unknown conv variant {variant!r}")
