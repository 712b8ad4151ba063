"""Windows of one raster: what a scan's overlapping windows can share.

A scene scan runs the detector on windows cut from *one* raster, and at
the paper's 100 px window and 50% overlap every pixel lies in up to four
of them.  Every Table-1 convolution is unpadded, so the leading conv /
pool steps are translation-invariant: wherever two windows overlap they
compute the same feature-map elements from the same pixels.
:func:`plan_windows` decides, from geometry alone, how much of the trunk
a scan computes once per scene instead of once per window:

* :func:`~.fusion.split_shared_prefix` cuts the trunk at the first layer
  whose cumulative stride no longer divides the origins' lattice;
* the shared prefix runs over **row chunks** of the scene on a grid
  anchored at scene row 0 — chunk *k* is rows ``[k*R, (k+1)*R)`` of the
  prefix's output, full scene width — so which program computes a given
  element is a property of the scan, never of who asks for it;
* sharing happens only when it is less arithmetic than the per-window
  path (it is not once ``stride >= window``).

One input is not the caller's to choose: a scene whose size is not a
multiple of the stride gets a last, *edge* origin at ``size - window``
on each axis, and the gcd of every origin is then whatever that origin
leaves of the stride (577 px at stride 50: 477, lattice 1, only conv1
would share).  So the plan is made twice, on the lattice of every origin
and on the lattice of the *interior* ones, and the one that saves more
arithmetic runs.  Windows off the chosen prefix's grid, the edge row and
column at most, are **edge windows**: they run the whole per-window
trunk, and their cost counts against the sharing.

The result is a :class:`WindowPlan`: the decision and every number
behind it, or the reason sharing was declined.  There is no knob: the
same ``(model, scene shape, window, origins)`` gives the same
plan in every process, which is what keeps a sharded scan byte-identical
to the sequential one.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Sequence

from .fusion import (
    SharedSplit,
    Step,
    chain_at,
    read_extent,
    split_shared_prefix,
)
from .kernels import pooled_extent

__all__ = ["WindowPlan", "origin_lattice", "plan_windows",
           "NOT_LESS_WORK", "NO_TRUNK"]

#: decline reasons decided here (the split's own are in ``fusion``)
NOT_LESS_WORK = "sharing is not less work than per-window"
NO_TRUNK = "model has no conv trunk"


def origin_lattice(origins: Sequence[tuple[int, int]]) -> int:
    """gcd of every row and column origin: the grid all windows of the
    scan sit on (0 when the only origin is the raster's corner)."""
    return math.gcd(*(int(v) for origin in origins for v in origin))


def _interior_lattice(origins: Sequence[tuple[int, int]]) -> int:
    """:func:`origin_lattice` short of each axis's last origin, the one
    ``scan_origins`` pins to the scene edge whatever the stride (0 when
    an axis has nothing but the corner and that edge)."""
    rows = sorted({int(r) for r, _ in origins})
    cols = sorted({int(c) for _, c in origins})
    return math.gcd(*rows[:-1], *cols[:-1])


@dataclass(frozen=True)
class WindowPlan:
    """How one scan geometry executes, and why.

    ``reason`` is ``None`` when the scan shares a prefix, else the fixed
    string naming why every window runs the whole trunk; the remaining
    fields describe the shared execution and stay at their defaults when
    it was declined before they were known.

    shared       : names of the prefix's steps, in order
    cut          : fused ``conv_pool`` step whose conv is shared and
                   whose pool runs per window, if any
    lattice      : the origin lattice the plan was made on: every
                   origin's, or the interior origins' when leaving the
                   edge windows to the per-window trunk is less work
    stride       : pixels per prefix-output element (``cs``)
    edge_windows : windows whose origin is off the ``stride`` grid (the
                   row and column ``scan_origins`` pins to the scene
                   edge): each runs the whole per-window trunk
    chunk_rows   : prefix-output rows per chunk (``R``)
    chunk_heights: pixel rows of an interior chunk and, when the grid
                   does not tile the scene, of the ragged last one
    crop         : side of the per-window crop of the prefix's output
    macs_shared / macs_per_window : multiply-adds of the shared layers
                   as this plan runs them (every chunk of the scene,
                   plus once per edge window) / as the per-window path
                   does (once per window, all ``n_windows``); a window's
                   own trunk runs at its read extent
                   (:func:`~.fusion.read_extent`)
    prefix_arena_bytes / carry_bytes : what the shared execution holds
                   (the largest prefix program's arena; the rolling
                   buffer of prefix output rows, ``carry_rows`` and one
                   that mirrors the first)
    """

    scene_shape: tuple[int, int, int]
    window: int
    n_windows: int
    lattice: int
    reason: str | None = None
    shared: tuple[str, ...] = ()
    cut: str | None = None
    stride: int = 1
    edge_windows: int = 0
    chunk_rows: int = 0
    chunk_heights: tuple[int, ...] = ()
    crop: int = 0
    macs_shared: int = 0
    macs_per_window: int = 0
    prefix_arena_bytes: int = 0
    carry_bytes: int = 0

    @property
    def macs_saved(self) -> int:
        """Multiply-adds this plan spares the per-window path (0 when
        declined): what :func:`plan_windows` ranks candidates by."""
        return (self.macs_per_window - self.macs_shared
                if self.reason is None else 0)

    @property
    def carry_rows(self) -> int:
        """Rows of the rolling buffer: whole chunks covering any
        ``crop`` consecutive rows wherever they start."""
        r = self.chunk_rows
        return (self.crop + 2 * r - 2) // r * r if r else 0

    def to_json(self) -> dict:
        return asdict(self)


def _conv_dims(step: Step) -> tuple[int, int]:
    """Output rows and columns of a conv step's GEMM: the conv's own,
    short of the odd row and column a fused pool never reads."""
    if step.kind == "conv_pool":
        _, rows, cols = step.attrs["conv_out"]
        return pooled_extent(int(rows), int(cols))
    return int(step.out_shape[1]), int(step.out_shape[2])


def _macs(steps: Sequence[Step]) -> int:
    """Multiply-adds of the conv steps of a chain."""
    total = 0
    for step in steps[1:]:
        rows, cols = _conv_dims(step)
        k = int(step.attrs["kernel"])
        total += (rows * cols * k * k * int(step.attrs["in_channels"])
                  * int(step.attrs["out_channels"]))
    return total


def _receptive_field(prefix: Sequence[Step]) -> int:
    """Input pixels (per axis) one prefix-output element depends on."""
    rf, jump = 1, 1
    for step in prefix[1:]:
        rf += (int(step.attrs["kernel"]) - 1) * jump
        jump *= int(step.attrs["stride"])
        if step.kind == "conv_pool":
            rf += jump
            jump *= 2
    return rf


def plan_windows(trunk: Sequence[Step], boundary: Sequence[str],
                 scene_shape: tuple[int, int, int], window: int,
                 origins: Sequence[tuple[int, int]],
                 itemsize: int) -> tuple[WindowPlan, SharedSplit | None]:
    """The :class:`WindowPlan` of scanning ``origins`` (the *whole*
    scan's, never a shard's slice) over a raster of ``scene_shape``,
    and the trunk split it executes (``None`` when declined).

    ``trunk`` / ``boundary`` are :func:`~.fusion.split_trunk_head`'s
    for the window shape.  Pure: no clock, no environment, no state.
    """
    def plan_on(lattice: int) -> tuple[WindowPlan, SharedSplit | None]:
        return _plan_on(lattice, trunk, boundary, scene_shape, window,
                        origins, itemsize)

    best = plan_on(origin_lattice(origins))
    interior = _interior_lattice(origins)
    if interior != best[0].lattice:
        # the edge origin set the lattice: sharing on the stride's own
        # and running the edge windows whole may be less work
        wider = plan_on(interior)
        if wider[0].macs_saved > best[0].macs_saved:
            best = wider
    return best


def _plan_on(lattice: int, trunk: Sequence[Step], boundary: Sequence[str],
             scene_shape: tuple[int, int, int], window: int,
             origins: Sequence[tuple[int, int]],
             itemsize: int) -> tuple[WindowPlan, SharedSplit | None]:
    """The plan of windows at ``origins`` sharing on ``lattice``."""
    channels, height, width = (int(d) for d in scene_shape)
    n_windows = len(origins)
    base = WindowPlan((channels, height, width), int(window), n_windows,
                      lattice)
    if not trunk:
        return _declined(base, NO_TRUNK)
    split = split_shared_prefix(trunk, boundary, base.lattice)
    if split.reason is not None:
        return _declined(base, split.reason)

    prefix = split.prefix
    last = prefix[-1]
    crop = int(last.out_shape[1])
    scene_chain = chain_at(prefix, (channels, height, width))
    out_rows = int(scene_chain[-1].out_shape[1])
    # a chunk's GEMM has no more rows than the per-window GEMM of the
    # last shared conv: the im2col matrix stays the size the depth-first
    # trunk already keeps cache-resident
    gemm_rows = math.prod(_conv_dims(last))
    pooled = 2 if last.kind == "conv_pool" else 1
    rows = max(1, gemm_rows // _conv_dims(scene_chain[-1])[1] // pooled)
    rf = _receptive_field(prefix)
    n_chunks = -(-out_rows // rows)
    ragged = out_rows - (n_chunks - 1) * rows
    heights = [(rows - 1) * split.stride + rf]
    if ragged != rows:
        heights.append((ragged - 1) * split.stride + rf)
    # every chunk but the last is an interior one
    macs = [_macs(chain_at(prefix, (channels, px, width))) for px in heights]
    edge = sum(1 for r, c in origins
               if r % split.stride or c % split.stride)
    # the same layers in the window's own trunk, as it runs them: at its
    # read extent, a cut conv fused with its pool (and skipping the rows
    # the pool never reads)
    h, w, _ = read_extent(trunk, boundary)
    per_window = _macs(chain_at(trunk[:len(prefix)], (channels, h, w)))
    plan = replace(
        base, shared=tuple(s.name for s in prefix[1:]), cut=split.cut,
        stride=split.stride, edge_windows=edge, chunk_rows=rows,
        chunk_heights=tuple(heights), crop=crop,
        macs_shared=((n_chunks - 1) * macs[0] + macs[-1]
                     + edge * per_window),
        macs_per_window=per_window * n_windows)
    if plan.macs_shared >= plan.macs_per_window:
        return _declined(plan, NOT_LESS_WORK)
    # the ring and the one row past it that mirrors its first
    carry = ((plan.carry_rows + 1) * int(scene_chain[-1].out_shape[2])
             * int(last.out_shape[0]) * itemsize)
    return replace(plan, carry_bytes=carry), split


def _declined(plan: WindowPlan, reason: str) -> tuple[WindowPlan, None]:
    return replace(plan, reason=reason), None
