"""Compiled inference: bind fused steps to a planned arena and execute.

``compile(model)`` snapshots the model once — trace, fuse, pack weights
into GEMM-ready layouts — and returns a :class:`CompiledModel`.  A
*program* is arena buffers sized by the memory planner, array views
bound into them, and a flat list of zero-argument kernel closures;
steady-state inference is just ``for fn in fns: fn()`` over NumPy
``out=`` kernels — no autograd tape, no per-op allocation, no layout
shuffling (activations stay NHWC between convolutions).

Execution is depth-first.  The fused steps are split
(:func:`.fusion.split_trunk_head`) into a *trunk* — everything before
the first fully-connected layer — and a *head*.  The trunk is bound
once per input shape ``(C, H, W)`` **at one sample** and looped over the
batch, each sample's boundary tensor landing in row *i* of the head's
``(n, F)`` input; the head, bound once per batch size, then runs over
the whole batch.  The loop pulls its samples lazily, one between trunk
runs, so a batch need not be complete, or even sized, before its first
trunk starts (:meth:`CompiledModel.predict_stream`: the serving layer's
open micro-batches).  A conv trunk's working set scales with the batch (a
batch-20 im2col matrix is 100 MB) while only the fully-connected layer,
which streams its weights per call, gains from batching — so the trunk
stays cache-resident, one trunk serves every batch size, and a tile's
trunk result cannot depend on its batch-mates.  Weights are packed once
at compile time and shared by every program (trace node names are
structural, hence stable across input sizes).

A scan's input is not independent chips but *windows of one raster*
(:meth:`CompiledModel.predict_windows`), and where windows overlap
their unpadded leading convolutions compute the same elements.  The
trunk is then split a second time (:func:`.fusion.split_shared_prefix`,
decided by :func:`.windows.plan_windows` from geometry alone): the
shared prefix runs once per row chunk of the scene into a small rolling
buffer, and only the suffix — fed a crop of that buffer — runs per
window.  The few windows the scene edge pins off the prefix's grid run
the one-sample trunk instead, into the same head rows.  Independent
chips keep the per-window programs.

Execution is serialized with an internal lock: programs own mutable
arena state, so one ``CompiledModel`` must not run concurrently with
itself.  Multi-worker serving should compile one model per worker.
"""

from __future__ import annotations

import threading
import time
import weakref
from dataclasses import replace
from itertools import islice

import numpy as np

from .fusion import SharedSplit, Step, chain_at, fuse_graph, split_trunk_head
from .kernels import (
    adaptive_bins,
    adaptive_pool_nhwc,
    bind_conv,
    concat_rows,
    conv_scratch_elems,
    conv_variant,
    linear,
    maxpool_shifted,
    pack_conv_weight,
    pack_linear_weight,
    pooled_to_flat,
    relu_,
    shifted_views,
    sigmoid_into,
    softmax_rows,
)
from .plan import MemoryPlan, plan_memory
from .trace import Traced, trace
from .windows import WindowPlan, plan_windows

__all__ = ["CompiledModel", "compile", "compiled_for"]

# Kernel-category attribution for profile(), matching the
# repro.profiling taxonomy (conv / matmul / pooling / elementwise) plus
# a "memops" bucket for pure data movement.  Fused kernels (conv_pool)
# further split their own wall time into phases — gather/staging as
# memops, fused pooling as pooling — inside execute_timed(); the entry
# here is the bucket for any untimed remainder.
_CATEGORY = {
    "conv": "conv",
    "conv_pool": "conv",
    "linear": "matmul",
    "maxpool": "pooling",
    "maxpool_flatten": "pooling",
    "adaptive_pool": "pooling",
    "adaptive_pool_flatten": "pooling",
    "relu": "elementwise",
    "sigmoid": "elementwise",
    "softmax": "elementwise",
    "flatten": "memops",
    "concat": "memops",
    "identity": "memops",
}


def _nhwc(shape: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Runtime view shape for a per-sample shape: NHWC for spatial
    tensors, ``(N, F)`` for flat ones."""
    if len(shape) == 3:
        c, h, w = shape
        return (n, h, w, c)
    return (n,) + shape


def _select_conv_variant(step: Step, shapes: dict,
                         batch: int) -> tuple[str, int]:
    """Kernel variant of one conv step and its per-sample scratch size."""
    c_in, h, w = shapes[step.inputs[0]]
    kernel = int(step.attrs["kernel"])
    variant = conv_variant(int(c_in), kernel)
    scratch_elems = conv_scratch_elems(
        variant, batch=batch, h=int(h), w=int(w), c_in=int(c_in),
        out_channels=int(step.attrs["out_channels"]), kernel=kernel,
        stride=int(step.attrs["stride"]),
        padding=int(step.attrs["padding"]), bias=bool(step.attrs["bias"]),
        pool=step.kind == "conv_pool")
    return variant, scratch_elems


def _timed_step(triple: tuple, acc: dict[str, float]) -> None:
    """Run one (category, name, closure) step, attributing wall time."""
    category, _, fn = triple
    phases: dict[str, float] = {}
    t0 = time.perf_counter()
    fn(phases)
    t1 = time.perf_counter()
    if phases:
        # fused kernels self-attribute their phases (gather ->
        # memops, fused pool -> pooling, ...); any untimed
        # remainder lands in the step's own category
        timed = 0.0
        for phase_cat, dt in phases.items():
            acc[phase_cat] = acc.get(phase_cat, 0.0) + dt
            timed += dt
        acc[category] = (acc.get(category, 0.0)
                         + max(0.0, (t1 - t0) - timed))
    else:
        acc[category] = acc.get(category, 0.0) + (t1 - t0)


class _Program:
    """One bound executable: arena slots, views, kernel closures.

    ``input`` steps are fed from outside — :meth:`feed` for the raw
    batch, or a write into ``views[name]`` for a tensor another program
    produced — then one of the ``execute*`` methods runs the kernels
    in step order.
    """

    def __init__(self, steps: list[Step], outputs: tuple[str, ...],
                 batch: int, dtype: np.dtype, packed: dict) -> None:
        shapes = {s.name: s.out_shape for s in steps}

        # Resolve the kernel variant per conv before planning: each
        # variant has its own scratch footprint (im2col columns vs block
        # buffers), and the plan must reserve what the bound kernel
        # will actually touch.
        self.kernel_choices: dict[str, str] = {}
        resolved: list[Step] = []
        for step in steps:
            if step.kind in ("conv", "conv_pool"):
                variant, scratch = _select_conv_variant(step, shapes, batch)
                self.kernel_choices[step.name] = variant
                step = replace(step, scratch_elems=scratch)
            resolved.append(step)
        steps = resolved

        self.plan: MemoryPlan = plan_memory(
            steps, outputs, batch, itemsize=dtype.itemsize)
        assert self.plan.check()
        self.batch = batch
        self.outputs = outputs
        elems = [size // dtype.itemsize for size in self.plan.slot_sizes]
        self._slots = [np.empty(n, dtype=dtype) for n in elems]

        #: step name -> its tensor in the arena (NHWC / ``(N, F)``)
        self.views = views = {}
        for step in steps:
            life = self.plan.lifetimes[step.name]
            shape = _nhwc(step.out_shape, batch)
            count = int(np.prod(shape))
            views[step.name] = self._slots[life.slot][:count].reshape(shape)

        self._inputs = [views[s.name] for s in steps if s.kind == "input"]
        self._fns: list[tuple[str, str, object]] = []  # (category, name, fn)
        for step in steps:
            if step.kind == "input":
                continue
            fn = self._bind(step, views, shapes, batch, dtype, packed)
            self._fns.append((_CATEGORY[step.kind], step.name, fn))

    # -- binding ---------------------------------------------------------
    def _scratch(self, step: Step, batch: int,
                 dtype: np.dtype) -> np.ndarray:
        life = self.plan.lifetimes[f"{step.name}:scratch"]
        return self._slots[life.slot][: batch * step.scratch_elems]

    def _bind(self, step: Step, views: dict, shapes: dict, n: int,
              dtype: np.dtype, packed: dict):
        out = views[step.name]
        ins = [views[name] for name in step.inputs]
        kind = step.kind

        if kind in ("conv", "conv_pool"):
            k = int(step.attrs["kernel"])
            stride = int(step.attrs["stride"])
            pad = int(step.attrs["padding"])
            relu = bool(step.attrs["relu"])
            pool = (2, 2) if kind == "conv_pool" else None
            scratch = self._scratch(step, n, dtype)
            pack = packed[step.attrs["weights"]]
            src = ins[0]
            return bind_conv(
                self.kernel_choices[step.name], src=src, out=out,
                scratch=scratch, k=k, stride=stride, pad=pad, relu=relu,
                pool=pool, w_pack=pack["im2col"])

        if kind == "linear":
            pack = packed[step.attrs["weights"]]
            relu = bool(step.attrs["relu"])
            w_pack, bias = pack["pack"], pack["bias"]

            def fn(acc=None, in2d=ins[0], w_pack=w_pack, bias=bias,
                   out2d=out, relu=relu):
                linear(in2d, w_pack, bias, out2d, relu)
            return fn

        if kind in ("maxpool", "maxpool_flatten"):
            k = int(step.attrs["kernel"])
            stride = int(step.attrs["stride"])
            relu = bool(step.attrs.get("relu"))
            src = ins[0]
            _, h, w, c = src.shape
            ho = (h - k) // stride + 1
            wo = (w - k) // stride + 1
            if kind == "maxpool":
                pooled = out
            else:
                staging = self._scratch(step, n, dtype)
                pooled = staging[: n * ho * wo * c].reshape(n, ho, wo, c)
            views = shifted_views(src, k, stride, ho, wo)

            def reduce_fn(acc=None, views=views, pooled=pooled, relu=relu):
                maxpool_shifted(views, pooled)
                if relu:
                    # deferred conv activation (ReLU commutes with max),
                    # one pass over the k*k-times smaller pooled tensor
                    np.maximum(pooled, 0.0, out=pooled)
            if kind == "maxpool":
                return reduce_fn

            out_nchw = out.reshape(n, c, ho, wo)

            def fn(acc=None, reduce_fn=reduce_fn, pooled=pooled,
                   out_nchw=out_nchw):
                reduce_fn()
                pooled_to_flat(pooled, out_nchw)
            return fn

        if kind in ("adaptive_pool", "adaptive_pool_flatten"):
            lv = int(step.attrs["output_size"])
            src = ins[0]
            _, h, w, c = src.shape
            ridx, _ = adaptive_bins(h, lv)
            cidx, _ = adaptive_bins(w, lv)
            if kind == "adaptive_pool":
                def fn(acc=None, src=src, ridx=ridx, cidx=cidx, out=out):
                    adaptive_pool_nhwc(src, ridx, cidx, out)
                return fn
            staging = self._scratch(step, n, dtype)
            pooled = staging[: n * lv * lv * c].reshape(n, lv, lv, c)
            out_nchw = out.reshape(n, c, lv, lv)

            def fn(acc=None, src=src, ridx=ridx, cidx=cidx, pooled=pooled,
                   out_nchw=out_nchw):
                adaptive_pool_nhwc(src, ridx, cidx, pooled)
                pooled_to_flat(pooled, out_nchw)
            return fn

        if kind == "relu":
            def fn(acc=None, src=ins[0], out=out):
                relu_(src, out)
            return fn

        if kind == "sigmoid":
            def fn(acc=None, src=ins[0], out=out):
                sigmoid_into(src, out)
            return fn

        if kind == "softmax":
            def fn(acc=None, src=ins[0], out=out):
                softmax_rows(src, out)
            return fn

        if kind == "flatten":
            src = ins[0]
            if src.ndim == 4:
                _, h, w, c = src.shape
                out_nchw = out.reshape(n, c, h, w)

                def fn(acc=None, src=src, out_nchw=out_nchw):
                    pooled_to_flat(src, out_nchw)
            else:
                def fn(acc=None, src=src, out=out):
                    np.copyto(out, src)
            return fn

        if kind == "concat":
            axis = 3 if out.ndim == 4 else 1

            def fn(acc=None, parts=ins, out=out, axis=axis):
                concat_rows(parts, out, axis)
            return fn

        if kind == "identity":
            def fn(acc=None, src=ins[0], out=out):
                np.copyto(out, src)
            return fn

        raise ValueError(f"no binding for step kind {kind!r}")  # pragma: no cover

    # -- execution -------------------------------------------------------
    def feed(self, x: np.ndarray, row: int = 0) -> None:
        """Copy raw NCHW / ``(N, F)`` samples into the program's input,
        from ``row`` on (all of it when ``x`` is the whole batch)."""
        (view,) = self._inputs
        np.copyto(view[row:row + len(x)],
                  x.transpose(0, 2, 3, 1) if view.ndim == 4 else x)

    def execute(self) -> None:
        for _, _, fn in self._fns:
            fn()

    def execute_timed(self, acc: dict[str, float]) -> None:
        """Run once, accumulating per-category wall time into ``acc``."""
        for triple in self._fns:
            _timed_step(triple, acc)

    def step_costs(self, x: np.ndarray,
                   repeats: int = 3) -> dict[str, float]:
        """Best-of wall-clock seconds per step on the real bound kernels.

        execute_timed-style per-step attribution, but keyed by step name
        and taken as a min over ``repeats`` full passes (docs/engine.md's
        step table).  The pass re-feeds the input each repeat, so every
        pass executes over live buffers.
        """
        costs: dict[str, float] = {}
        for _ in range(max(1, int(repeats))):
            self.feed(x)
            for _, name, fn in self._fns:
                t0 = time.perf_counter()
                fn()
                dt = time.perf_counter() - t0
                prev = costs.get(name)
                if prev is None or dt < prev:
                    costs[name] = dt
        return costs

    def extract(self) -> list[np.ndarray]:
        """Fresh copies of the outputs in eager NCHW / ``(N, F)`` layout."""
        views = [self.views[name] for name in self.outputs]
        return [view.transpose(0, 3, 1, 2).copy() if view.ndim == 4
                else view.copy() for view in views]


def _as_tile(pixels: np.ndarray) -> np.ndarray:
    """Raster pixels as the per-window path sees them: tiles reach it
    through a float32 buffer, whatever the raster's dtype."""
    return pixels if pixels.dtype == np.float32 \
        else pixels.astype(np.float32)


class _WindowScan:
    """The bound shared execution of one scan geometry
    (:mod:`repro.engine.windows`).

    Holds a prefix program per chunk height, the per-window suffix
    program, and the rolling carry buffer: a ring of chunk slots, chunk
    ``k`` (prefix-output rows ``[k*R, (k+1)*R)`` on the scene-anchored
    grid) living in slot ``k % n_slots``, so prefix row ``p`` is ring
    row ``p % ring``.  Chunks are computed lazily in row order as
    windows ask for rows, and a slot is reused once every window row
    that reads its chunk has retired.  When the cut fell inside a fused
    ``conv_pool`` the window's 2x2 pool reads the ring in place and the
    suffix program starts at the pooled tensor; otherwise the window's
    crop is copied into the suffix's input.  A plan with edge windows
    also holds the window shape's one-sample trunk, the program
    ``predict`` runs, for the windows off the prefix's grid.
    """

    def __init__(self, model: "CompiledModel", plan: WindowPlan,
                 split: SharedSplit, boundary: tuple[str, ...]) -> None:
        channels, _, width = plan.scene_shape
        last = split.prefix[-1].name

        def bind(px: int) -> _Program:
            return _Program(
                chain_at(split.prefix, (channels, px, width)), (last,), 1,
                model.dtype, model._packed)
        #: chunk pixel height -> the prefix program bound at it
        self.prefixes = {px: bind(px) for px in plan.chunk_heights}
        suffix_steps = list(split.suffix)
        #: the suffix opens with the cut step's pool: run here, off the ring
        self._pools = split.cut is not None
        if self._pools:
            pool = suffix_steps[1]
            suffix_steps[:2] = [Step("input", pool.name, (), pool.out_shape,
                                     covers=(pool.name,))]
        self.suffix = _Program(suffix_steps, boundary, 1, model.dtype,
                               model._packed)
        shape = (channels, plan.window, plan.window)
        self.trunk = model._trunk_for(shape) if plan.edge_windows else None
        out = self.prefixes[plan.chunk_heights[0]].views[last]
        # one row past the ring mirrors row 0: a pool's row pair that
        # straddles the wrap is still two adjacent rows
        self.carry = np.empty((plan.carry_rows + 1,) + out.shape[2:],
                              dtype=model.dtype)
        self.plan = replace(
            plan, prefix_arena_bytes=max(
                prog.plan.peak_bytes for prog in self.prefixes.values()))
        self._n_slots = plan.carry_rows // plan.chunk_rows
        #: chunks ``[first, stop)`` are in the ring, on behalf of ``owner``
        self._first = self._stop = 0
        self._owner: object | None = None

    def _chunk(self, image: np.ndarray, k: int) -> None:
        """Run the prefix over chunk ``k`` of ``image`` into its slot."""
        plan = self.plan
        rows = plan.chunk_rows
        px0 = k * rows * plan.stride
        height = plan.chunk_heights[0]
        if px0 + height > image.shape[1]:
            # an output row exists iff its receptive field fits, so only
            # the ragged last chunk fails to
            height = plan.chunk_heights[-1]
        prog = self.prefixes[height]
        prog.feed(_as_tile(image[None, :, px0:px0 + height]))
        prog.execute()
        out = prog.views[prog.outputs[0]][0]
        slot = k % self._n_slots * rows
        np.copyto(self.carry[slot:slot + len(out)], out)
        if slot == 0:
            np.copyto(self.carry[-1], out[0])

    def _feed(self, image: np.ndarray, top: int, left: int) -> None:
        """Feed the suffix the window whose prefix-output corner is
        ``(top, left)``, running the chunks it reads that the ring does
        not hold yet."""
        plan = self.plan
        rows, n, ring = plan.chunk_rows, plan.crop, plan.carry_rows
        k_lo, k_hi = top // rows, (top + n - 1) // rows
        if not self._first <= k_lo <= self._stop:
            self._stop = k_lo       # nothing held can be reused
        self._first = k_lo
        while self._stop <= k_hi:
            self._chunk(image, self._stop)
            self._stop += 1
        (fed,) = self.suffix._inputs
        at = top % ring
        if not self._pools:
            held = min(n, ring - at)        # crop rows before the wrap
            np.copyto(fed[0, :held], self.carry[at:at + held, left:left + n])
            if held < n:
                np.copyto(fed[0, held:],
                          self.carry[:n - held, left:left + n])
            return
        # the cut step's pool then its ReLU, in the fused kernel's order:
        # the row pairs that start before the wrap (the mirror row
        # closes an odd one), then those after it
        ph, pw = fed.shape[1:3]
        held = min(ph, (ring - at + 1) // 2)
        for lo, hi, row in ((0, held, at), (held, ph, (at + 2 * held) % ring)):
            if lo < hi:
                block = self.carry[None, row:row + 2 * (hi - lo),
                                   left:left + 2 * pw]
                maxpool_shifted(shifted_views(block, 2, 2, hi - lo, pw),
                                fed[:, lo:hi])
        np.maximum(fed, 0.0, out=fed)

    def run(self, image: np.ndarray, origins, head: _Program,
            owner: object) -> None:
        """One micro-batch: each window's crop through the suffix (an
        edge window's pixels through the trunk) into row ``i`` of
        ``head``, then the head."""
        cs, window = self.plan.stride, self.plan.window
        if self._owner is not owner:
            # another scan used the ring since: nothing in it is ours
            self._owner, self._first, self._stop = owner, 0, 0
        gathered = [head.views[name] for name in self.suffix.outputs]
        for i, (r0, c0) in enumerate(origins):
            if r0 % cs or c0 % cs:
                prog = self.trunk
                prog.feed(_as_tile(
                    image[None, :, r0:r0 + window, c0:c0 + window]))
            else:
                prog = self.suffix
                self._feed(image, r0 // cs, c0 // cs)
            prog.execute()
            for batch_rows, name in zip(gathered, prog.outputs):
                np.copyto(batch_rows[i:i + 1], prog.views[name])
        head.execute()


def _crossing_confidence(logits: np.ndarray) -> np.ndarray:
    """Softmax probability of the crossing class, per row of logits."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    np.exp(shifted, out=shifted)
    probs = shifted / shifted.sum(axis=1, keepdims=True)
    return probs[:, 1].copy()


class CompiledModel:
    """A model lowered to fused, memory-planned NumPy programs.

    Calling it mirrors the eager module: one ndarray (or Tensor) in,
    the module's output(s) out — a tuple when the traced module returns
    several values (the detector's ``(class_logits, boxes)``), a single
    array otherwise.  Outputs are returned in eager NCHW / ``(N, F)``
    layouts regardless of the internal NHWC representation.
    """

    def __init__(self, module, input_shape: tuple[int, ...],
                 dtype=np.float32) -> None:
        self.module = module
        self.dtype = np.dtype(dtype)
        self.input_shape = tuple(int(d) for d in input_shape)
        traced = trace(module, self.input_shape)
        self.graph = traced.graph
        self.outputs = traced.outputs
        self.steps: list[Step] = fuse_graph(traced.graph, traced.outputs)
        self._packed = self._pack(traced)
        self._step_cache: dict[tuple[int, ...], list[Step]] = {
            self.input_shape: self.steps
        }
        #: sample shape -> its one-sample trunk (no entry: all head)
        self._trunks: dict[tuple[int, ...], _Program] = {}
        #: (batch,) + sample shape -> the head bound at that batch
        self._heads: dict[tuple[int, ...], _Program] = {}
        #: sample shape -> split_trunk_head of its steps
        self._splits: dict[tuple[int, ...], tuple] = {}
        #: the most recent scan geometry's (key, plan, shared execution)
        self._scan: tuple[tuple, WindowPlan, _WindowScan | None] | None = None
        self._lock = threading.Lock()

    # -- compile-time ----------------------------------------------------
    def _pack(self, traced: Traced) -> dict[str, dict]:
        """Snapshot weights into GEMM-ready layouts (taken once)."""
        packed: dict[str, dict] = {}
        for name, params in traced.params.items():
            weight = params["weight"]
            bias = params.get("bias")
            if weight.ndim == 4:
                # conv bias rides inside the packed matrix (ones-column
                # trick)
                packed[name] = {
                    "im2col": pack_conv_weight(weight, bias, self.dtype)}
            else:
                packed[name] = {
                    "pack": pack_linear_weight(weight, self.dtype),
                    "bias": None if bias is None else
                    np.ascontiguousarray(bias, dtype=self.dtype)}
        return packed

    def _steps_for(self, sample_shape: tuple[int, ...]) -> list[Step]:
        steps = self._step_cache.get(sample_shape)
        if steps is None:
            traced = trace(self.module, sample_shape)
            if tuple(traced.outputs) != tuple(self.outputs):
                raise ValueError(
                    "model structure changed between compile and execution"
                )
            for name in traced.params:
                if name not in self._packed:
                    raise ValueError(
                        f"node {name!r} has no packed weights; the model "
                        "gained parameters after compile()"
                    )
            steps = fuse_graph(traced.graph, traced.outputs)
            self._step_cache[sample_shape] = steps
        return steps

    def _split_for(self, sample_shape: tuple[int, ...]
                   ) -> tuple[list[Step], tuple[str, ...], list[Step]]:
        """The shape's ``(trunk steps, boundary, head steps)``."""
        split = self._splits.get(sample_shape)
        if split is None:
            split = self._splits[sample_shape] = split_trunk_head(
                self._steps_for(sample_shape), self.outputs)
        return split

    def _head_for(self, batch: int, sample_shape: tuple[int, ...]
                  ) -> _Program:
        """The head bound at ``batch`` samples of ``sample_shape``."""
        key = (batch,) + sample_shape
        head = self._heads.get(key)
        if head is None:
            head = self._heads[key] = _Program(
                self._split_for(sample_shape)[2], self.outputs, batch,
                self.dtype, self._packed)
        return head

    def _trunk_for(self, sample_shape: tuple[int, ...]) -> _Program | None:
        """The shape's one-sample trunk (``None``: all head)."""
        trunk = self._trunks.get(sample_shape)
        if trunk is None:
            trunk_steps, boundary, _ = self._split_for(sample_shape)
            if trunk_steps:
                trunk = self._trunks[sample_shape] = _Program(
                    trunk_steps, boundary, 1, self.dtype, self._packed)
        return trunk

    def _programs_for(self, batch: int, sample_shape: tuple[int, ...]
                      ) -> tuple[_Program | None, _Program]:
        """The ``(trunk, head)`` pair that executes ``(batch, shape)``.

        The trunk is bound at one sample on the shape's first use and
        shared by every batch size; the head is per batch size.  The
        trunk is ``None`` for a model that is all head.
        """
        return (self._trunk_for(sample_shape),
                self._head_for(batch, sample_shape))

    def _bound(self, batch: int, sample_shape: tuple[int, ...] | None
               ) -> tuple[_Program | None, _Program]:
        shape = tuple(int(d) for d in (sample_shape or self.input_shape))
        with self._lock:
            return self._programs_for(int(batch), shape)

    def _window_scan(self, scene_shape: tuple[int, ...], window: int,
                     origins) -> tuple[WindowPlan, _WindowScan | None]:
        """The plan of one scan geometry and, when it shares a prefix,
        its bound execution.  Only the latest geometry stays bound: its
        arena and carry buffer grow with the scene's width."""
        scene_shape = tuple(int(d) for d in scene_shape)
        window = int(window)
        # the plan counts the origins off its grid: all of them matter
        key = (scene_shape, window,
               tuple((int(r), int(c)) for r, c in origins))
        if self._scan is None or self._scan[0] != key:
            trunk, boundary, _ = self._split_for(
                (scene_shape[0], window, window))
            plan, split = plan_windows(
                trunk, boundary, scene_shape, window, origins,
                self.dtype.itemsize)
            scan = None
            if split is not None:
                scan = _WindowScan(self, plan, split, boundary)
                plan = scan.plan
            self._scan = (key, plan, scan)
        return self._scan[1:]

    # -- execution -------------------------------------------------------
    def _forward(self, samples, limit: int, execute) -> list[np.ndarray]:
        """Depth-first pass over up to ``limit`` samples, pulled from
        ``samples`` one at a time *between* trunk runs: each sample runs
        the shape's one-sample trunk and its boundary tensors land in
        row ``i`` of the head bound at ``limit``.  The batch closes when
        ``samples`` ends or ``limit`` rows are in (nothing further is
        pulled then); the head of the final ``n`` runs once over the
        rows.  ``execute(program)`` runs a fed program.  Called with the
        engine lock held, so a pull must not block."""
        n = 0
        for sample in islice(samples, limit):
            sample = np.asarray(sample)
            if n == 0:
                shape = sample.shape
                trunk, staged = self._programs_for(limit, shape)
                pairs = [] if trunk is None else [
                    (staged.views[name], trunk.views[name])
                    for name in trunk.outputs]
            elif sample.shape != shape:
                raise ValueError(
                    f"one batch must share a sample shape: got "
                    f"{sample.shape} after {shape}")
            if trunk is None:
                staged.feed(sample[None], row=n)
            else:
                trunk.feed(sample[None])
                execute(trunk)
                for rows, out in pairs:
                    np.copyto(rows[n:n + 1], out)
            n += 1
        if n == 0:
            raise ValueError("batch must be >= 1, got 0")
        head = staged
        if n < limit:
            # closed early: hand the rows to the head bound at n
            head = self._head_for(n, shape)
            for rows, filled in zip(head._inputs, staged._inputs):
                np.copyto(rows, filled[:n])
        execute(head)
        return head.extract()

    def __call__(self, x):
        data = np.asarray(getattr(x, "data", x))
        if data.ndim != len(self.input_shape) + 1:
            raise ValueError(
                f"expected batched input with {len(self.input_shape) + 1} "
                f"dims, got shape {data.shape}"
            )
        with self._lock:
            results = self._forward(data, len(data), _Program.execute)
        return results[0] if len(results) == 1 else tuple(results)

    def _require_detector(self, what: str) -> None:
        if len(self.outputs) != 2:
            raise ValueError(
                f"{what} requires a detector-style compiled model with "
                f"(logits, boxes) outputs, this one has {len(self.outputs)}"
            )

    def predict(self, images: np.ndarray,
                batch_size: int = 20) -> tuple[np.ndarray, np.ndarray]:
        """Drop-in for :func:`repro.detect.predict` on a traced detector:
        returns (crossing confidences, normalized boxes)."""
        self._require_detector("predict()")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        confidences: list[np.ndarray] = []
        boxes: list[np.ndarray] = []
        for start in range(0, len(images), batch_size):
            logits, box = self(images[start:start + batch_size])
            confidences.append(_crossing_confidence(logits))
            boxes.append(box)
        return np.concatenate(confidences), np.concatenate(boxes)

    def predict_stream(self, chips, limit: int
                       ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`predict` over one *open* micro-batch: ``(C, H, W)``
        chips are pulled from the iterator ``chips`` one at a time,
        each just before its trunk runs, until it ends or ``limit``
        chips are in (the rest stay in the iterator), and the head runs
        once over all of them.  Bitwise :meth:`predict` over the same
        chips stacked in the same order.  The pulls happen with the
        engine lock held, so ``chips`` must never block — it may take
        other locks only if no holder of those ever calls the engine.
        """
        self._require_detector("predict_stream()")
        with self._lock:
            logits, box = self._forward(chips, limit, _Program.execute)
        return _crossing_confidence(logits), box

    def predict_windows(self, image: np.ndarray, origins, window: int,
                        batch_size: int = 20,
                        span: tuple[int, int] | None = None):
        """:meth:`predict` over the ``window``-sized windows of one
        ``(C, H, W)`` raster at ``origins``, as a generator of
        ``(confidences, boxes)`` per micro-batch of ``batch_size``.

        ``origins`` is the *whole* scan: its lattice and window count
        decide (:meth:`window_plan`) whether the leading unpadded conv
        steps run once per scene row chunk and each window only crops
        their output, or every window runs the whole trunk.  ``span =
        (start, stop)`` restricts execution to ``origins[start:stop]``
        (a shard) without changing that decision or the chunk grid, so
        a shard computes the bytes the whole scan computes.  Results
        are bitwise those of :meth:`predict` over the gathered window
        stacks: every shared layer is unpadded, so a window's features
        are the same arithmetic on the same pixels.
        """
        self._require_detector("predict_windows()")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        image = np.asarray(image)
        if image.ndim != 3:
            raise ValueError(f"expected a (C, H, W) raster, got {image.shape}")
        start, stop = (0, len(origins)) if span is None else span
        todo = origins[start:stop]
        for r0, c0 in todo:
            if not (0 <= r0 <= image.shape[1] - window
                    and 0 <= c0 <= image.shape[2] - window):
                raise ValueError(
                    f"window at {(r0, c0)} does not fit raster "
                    f"{image.shape[1:]}")
        shape = (image.shape[0], int(window), int(window))
        with self._lock:
            _, scan = self._window_scan(image.shape, window, origins)
        stack = None if scan is not None else np.empty(
            (batch_size,) + shape, dtype=np.float32)
        owner = object()
        for at in range(0, len(todo), batch_size):
            batch = todo[at:at + batch_size]
            with self._lock:
                if scan is None:
                    for i, (r0, c0) in enumerate(batch):
                        stack[i] = image[:, r0:r0 + window, c0:c0 + window]
                    logits, box = self._forward(stack, len(batch),
                                                _Program.execute)
                else:
                    head = self._head_for(len(batch), shape)
                    scan.run(image, batch, head, owner)
                    logits, box = head.extract()
            yield _crossing_confidence(logits), box

    def warmup(self, batch_sizes, sample_shape: tuple[int, ...] | None = None
               ) -> float:
        """Pre-build the shape's trunk and a head per ``batch_sizes``.

        Binding a program — memory planning, arena allocation, view and
        closure construction — is the one non-amortized cost of the
        compiled path; without warmup the first request of each shape
        pays it inline.  Calling this at startup (the serving layer
        does, and every parallel scan worker warms its shard's batch
        shapes) moves that latency out of the request path.

        Returns the elapsed milliseconds; already-bound programs cost
        nothing, so warmup is idempotent.
        """
        start = time.perf_counter()
        for batch in batch_sizes:
            if batch < 1:
                raise ValueError("warmup batch sizes must be >= 1")
            self._bound(batch, sample_shape)
        return (time.perf_counter() - start) * 1e3

    def warmup_windows(self, scene_shape: tuple[int, ...], window: int,
                       origins, batch_sizes) -> float:
        """:meth:`warmup` for :meth:`predict_windows`: pre-build what a
        scan of ``origins`` over a ``scene_shape`` raster executes —
        the shared prefix and per-window suffix programs, the window
        shape's trunk when the plan has edge windows (or declines), and
        a head per ``batch_sizes``.  Returns the elapsed milliseconds."""
        start = time.perf_counter()
        shape = (int(scene_shape[0]), int(window), int(window))
        with self._lock:
            _, scan = self._window_scan(scene_shape, window, origins)
            for batch in batch_sizes:
                if scan is None:
                    self._programs_for(int(batch), shape)
                else:
                    self._head_for(int(batch), shape)
        return (time.perf_counter() - start) * 1e3

    # -- introspection ---------------------------------------------------
    def memory_plan(self, batch: int = 1,
                    sample_shape: tuple[int, ...] | None = None) -> MemoryPlan:
        """The arena assignment held while executing ``batch`` samples:
        the one-sample trunk's arena followed by the head's at ``batch``
        (scratch already re-sized for the selected kernel variants)."""
        trunk, head = self._bound(batch, sample_shape)
        if trunk is None:
            return head.plan
        return trunk.plan.followed_by(head.plan)

    def window_plan(self, scene_shape: tuple[int, ...], window: int,
                    origins) -> WindowPlan:
        """How :meth:`predict_windows` executes a scan of ``origins``
        over a ``scene_shape = (C, H, W)`` raster, and why: the shared
        steps, where a fused step was cut, the cumulative stride, the
        origins' lattice, the chunk grid, what the shared execution
        holds in memory and the multiply-adds on either side — or the
        reason every window runs the whole trunk.  A function of the
        model and the geometry alone.  (A shared plan binds its
        programs, as :meth:`memory_plan` does, to report their arena.)"""
        with self._lock:
            return self._window_scan(scene_shape, window, origins)[0]

    def kernel_choices(self, batch: int = 1,
                       sample_shape: tuple[int, ...] | None = None
                       ) -> dict[str, str]:
        """The conv kernel bound per conv step of the programs that run
        ``(batch, shape)`` (:func:`~.kernels.conv_variant` of each
        layer)."""
        trunk, head = self._bound(batch, sample_shape)
        return {**(trunk.kernel_choices if trunk else {}),
                **head.kernel_choices}

    def schedule_for(self, batch: int = 1,
                     sample_shape: tuple[int, ...] | None = None):
        """Always ``None``: programs run their steps in order.  Kept for
        the frozen ``benchmarks/e2e`` harness, which records it; goes
        with :mod:`.sched` (ROADMAP item 1)."""
        return None

    def planned_peak_bytes(self, batch: int = 1) -> int:
        """Arena bytes held while executing ``batch`` samples (trunk +
        head) — the reuse-aware counterpart of
        ``graph.analysis.activation_bytes``."""
        return self.memory_plan(batch).peak_bytes

    def fused_step_kinds(self) -> list[str]:
        return [s.kind for s in self.steps]

    def profile(self, x: np.ndarray, repeats: int = 10,
                warmup: int = 2) -> dict:
        """Kernel-category timing of one input shape.

        Returns ``{"total_ms", "per_run_ms", "categories": {name:
        {"ms", "share"}}}`` with categories matching the
        ``repro.profiling`` taxonomy.
        """
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        data = np.asarray(getattr(x, "data", x))
        acc: dict[str, float] = {}
        in_kernels = 0.0

        def timed(prog: _Program) -> None:
            nonlocal in_kernels
            t0 = time.perf_counter()
            prog.execute_timed(acc)
            in_kernels += time.perf_counter() - t0

        with self._lock:
            for _ in range(warmup):
                self._forward(data, len(data), _Program.execute)
            start = time.perf_counter()
            for _ in range(repeats):
                self._forward(data, len(data), timed)
            # whatever a pass spends outside its kernels moves data:
            # input transposes, boundary rows, output copies
            acc["memops"] = (acc.get("memops", 0.0)
                             + time.perf_counter() - start - in_kernels)
        total = sum(acc.values())
        return {
            "total_ms": total * 1e3,
            "per_run_ms": total * 1e3 / repeats,
            "categories": {
                name: {"ms": sec * 1e3,
                       "share": sec / total if total else 0.0}
                for name, sec in sorted(acc.items(), key=lambda kv: -kv[1])
            },
        }


def compile(model, input_shape: tuple[int, ...] | None = None,
            dtype=np.float32) -> CompiledModel:
    """Compile ``model`` for fast inference.

    ``input_shape`` is the nominal per-sample shape ``(C, H, W)``; for an
    :class:`~repro.detect.SPPNetDetector` it defaults to the paper's
    100x100 chip in the architecture's band count.  Other spatial shapes
    still execute (SPP makes the network size-agnostic) — they just bind
    their own programs on first use.

    ``dtype`` selects the arena precision: ``float32`` (default) is the
    deployment configuration; ``float64`` reproduces eager numerics
    bit-for-bit and exists for equivalence testing.
    """
    if input_shape is None:
        config = getattr(model, "config", None)
        if config is None or not hasattr(config, "in_channels"):
            raise ValueError(
                "input_shape is required for models without an "
                "SPPNetConfig-style .config"
            )
        side = max(100, config.min_input_size())
        input_shape = (config.in_channels, side, side)
    return CompiledModel(model, input_shape, dtype=dtype)


_COMPILED_CACHE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def compiled_for(model) -> CompiledModel:
    """Per-model-instance compile cache used by every engine call site
    (``scan_scene``, ``GuardedEngine``, ``predict(backend="engine")``,
    the NAS latency evaluator).

    The compiled program snapshots weights at first use; training the
    model afterwards requires a fresh :func:`compile` (or a new model
    object) to pick up the new parameters.

    A wrapper that is not a traceable module hands over its program
    from an ``engine_program()`` method (``repro.faults.FaultyDetector``).
    """
    engine_program = getattr(model, "engine_program", None)
    if engine_program is not None:
        return engine_program()
    compiled = _COMPILED_CACHE.get(model)
    if compiled is None:
        compiled = _COMPILED_CACHE[model] = compile(model)
    return compiled
