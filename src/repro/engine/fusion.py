"""Operator fusion: lower a traced graph into an executable step list.

The fusion pass walks the IR in topological order and greedily merges
producer/consumer pairs whose composition has a cheaper fused kernel than
the two operators run separately:

* ``CONV2D + RELU + MAXPOOL(2x2/s2)`` -> one ``conv_pool`` step: the
  trunk pattern of every SPP-Net candidate.  The conv variants
  (:func:`.kernels.bind_conv`) pool inside the kernel — tiled im2col
  pools each block while it is cache-hot — so ReLU runs on the
  4x-smaller pooled tensor and the full conv output never becomes a
  planned tensor;
* ``CONV2D + RELU``   -> one ``conv`` step (ReLU applied in the GEMM
  output buffer, saving a full activation read+write);
* ``LINEAR + RELU``   -> one ``linear`` step (same argument);
* ``MAXPOOL + FLATTEN`` and ``ADAPTIVE_MAXPOOL + FLATTEN`` -> one
  pooling step that writes the flattened, channel-major vector directly
  (the pooled NCHW intermediate never materializes as a planned tensor).

A fusion only fires when the producer has exactly one consumer and is not
itself a requested graph output — otherwise its value must exist
standalone.  Each :class:`Step` records the IR nodes it covers so tests
and docs can audit what fused.

Steps name their result after the *last* covered node, which keeps the
output-name mapping trivial: requested outputs always survive as step
results (a fused ``relu2`` is the name of the fused conv step).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from ..graph.ir import Graph, OpType
from .kernels import conv_out_hw, conv_scratch_elems

__all__ = ["Step", "FusionError", "fuse_graph", "split_trunk_head",
           "SharedSplit", "split_shared_prefix", "chain_at", "read_extent"]


class FusionError(ValueError):
    """Raised when a traced graph cannot be lowered to executable steps."""


@dataclass(frozen=True)
class Step:
    """One executable unit of a compiled program.

    kind      : kernel selector ('input', 'conv', 'conv_pool', 'linear',
                'maxpool', 'maxpool_flatten', 'adaptive_pool',
                'adaptive_pool_flatten', 'relu', 'sigmoid', 'softmax',
                'flatten', 'concat').
    name      : name of the tensor this step produces (= last covered node).
    inputs    : names of consumed tensors.
    out_shape : per-sample shape of the produced tensor.
    attrs     : static kernel attributes (kernel/stride/relu/...).
    covers    : IR node names this step implements, in order.
    scratch_elems : per-sample elements of step-local scratch (im2col
                columns, pooled staging buffer, a linear's GEMM stage)
                the memory planner must reserve for the duration of
                this step.
    """

    kind: str
    name: str
    inputs: tuple[str, ...]
    out_shape: tuple[int, ...]
    attrs: Mapping[str, object] = field(default_factory=dict)
    covers: tuple[str, ...] = ()
    scratch_elems: int = 0

    @property
    def out_elems(self) -> int:
        n = 1
        for d in self.out_shape:
            n *= d
        return n


def _elems(shape: tuple[int, ...]) -> int:
    n = 1
    for d in shape:
        n *= d
    return n


def _sole_successor(graph: Graph, succ: dict[str, list[str]], name: str,
                    op_type: OpType, outputs: set[str]) -> str | None:
    """Name of ``name``'s only consumer if it has type ``op_type`` and
    fusing would not hide a requested output; else ``None``."""
    if name in outputs:
        return None
    consumers = succ[name]
    if len(consumers) != 1:
        return None
    nxt = consumers[0]
    if graph[nxt].op_type is not op_type:
        return None
    return nxt


def fuse_graph(graph: Graph, outputs: tuple[str, ...]) -> list[Step]:
    """Lower ``graph`` to a fused step list producing ``outputs``."""
    succ = graph.successor_map()
    out_set = set(outputs)
    for name in outputs:
        if name not in graph:
            raise FusionError(f"requested output {name!r} is not in the graph")
    consumed: set[str] = set()
    relu_after_pool: set[str] = set()
    steps: list[Step] = []

    for op in graph.nodes():
        if op.name in consumed:
            continue
        t = op.op_type

        if t is OpType.INPUT:
            steps.append(Step("input", op.name, (), op.out_shape,
                              covers=(op.name,)))
            continue

        if t is OpType.CONV2D:
            relu = _sole_successor(graph, succ, op.name, OpType.RELU, out_set)
            covers = (op.name,) if relu is None else (op.name, relu)
            apply_relu = relu is not None
            pool_node = None
            if relu is not None:
                consumed.add(relu)
                pool = _sole_successor(graph, succ, relu, OpType.MAXPOOL,
                                       out_set)
                if pool is not None:
                    pk = int(graph[pool].attr("kernel"))
                    ps = int(graph[pool].attr("stride"))
                    if pk == 2 and ps == 2:
                        # The trunk pattern: fuse the whole
                        # conv->relu->pool chain into one kernel.
                        pool_node = pool
                        consumed.add(pool)
                    else:
                        # ReLU commutes with max pooling, so when the
                        # activated tensor feeds exactly one (unfusable)
                        # MAXPOOL, apply ReLU to the smaller pooled
                        # output instead.
                        apply_relu = False
                        relu_after_pool.add(pool)
            k = int(op.attr("kernel"))
            c_in = int(op.attr("in_channels"))
            p = int(op.attr("padding", 0))
            has_bias = bool(op.attr("bias", True))
            f, ho, wo = op.out_shape
            _, h_in, w_in = graph[op.inputs[0]].out_shape
            attrs = {"kernel": k, "stride": int(op.attr("stride")),
                     "padding": p, "in_channels": c_in, "out_channels": f,
                     "bias": has_bias, "weights": op.name}
            # Scratch is sized for the reference im2col kernel here; the
            # program binder re-sizes it for the variant
            # ``kernels.conv_variant`` selects before memory planning.
            scratch = conv_scratch_elems(
                "im2col", batch=1, h=h_in, w=w_in, c_in=c_in,
                out_channels=f, kernel=k, stride=attrs["stride"],
                padding=p, bias=has_bias, pool=pool_node is not None)
            if pool_node is not None:
                steps.append(Step(
                    "conv_pool", pool_node, op.inputs,
                    graph[pool_node].out_shape,
                    attrs={**attrs, "relu": True,
                           "pool_kernel": 2, "pool_stride": 2,
                           "conv_out": op.out_shape},
                    covers=covers + (pool_node,),
                    scratch_elems=scratch,
                ))
            else:
                steps.append(Step(
                    "conv", covers[-1], op.inputs, op.out_shape,
                    attrs={**attrs, "relu": apply_relu},
                    covers=covers,
                    scratch_elems=scratch,
                ))
            continue

        if t is OpType.LINEAR:
            relu = _sole_successor(graph, succ, op.name, OpType.RELU, out_set)
            covers = (op.name,) if relu is None else (op.name, relu)
            result = covers[-1]
            if relu is not None:
                consumed.add(relu)
            steps.append(Step(
                "linear", result, op.inputs, op.out_shape,
                attrs={"in_features": int(op.attr("in_features")),
                       "relu": relu is not None, "weights": op.name},
                covers=covers,
                # the (out, rows) GEMM stage of kernels.linear
                scratch_elems=_elems(op.out_shape),
            ))
            continue

        if t is OpType.MAXPOOL:
            flat = _sole_successor(graph, succ, op.name, OpType.FLATTEN, out_set)
            attrs = {"kernel": int(op.attr("kernel")),
                     "stride": int(op.attr("stride")),
                     "relu": op.name in relu_after_pool}
            if flat is None:
                steps.append(Step("maxpool", op.name, op.inputs, op.out_shape,
                                  attrs=attrs, covers=(op.name,)))
            else:
                consumed.add(flat)
                steps.append(Step(
                    "maxpool_flatten", flat, op.inputs,
                    graph[flat].out_shape, attrs=attrs,
                    covers=(op.name, flat),
                    # pooled NHWC staging buffer before the channel-major
                    # reorder into the flat output.
                    scratch_elems=_elems(op.out_shape),
                ))
            continue

        if t is OpType.ADAPTIVE_MAXPOOL:
            flat = _sole_successor(graph, succ, op.name, OpType.FLATTEN, out_set)
            attrs = {"output_size": int(op.attr("output_size"))}
            if flat is None:
                steps.append(Step("adaptive_pool", op.name, op.inputs,
                                  op.out_shape, attrs=attrs, covers=(op.name,)))
            else:
                consumed.add(flat)
                steps.append(Step(
                    "adaptive_pool_flatten", flat, op.inputs,
                    graph[flat].out_shape, attrs=attrs,
                    covers=(op.name, flat),
                    scratch_elems=_elems(op.out_shape),
                ))
            continue

        if t in (OpType.RELU, OpType.SIGMOID, OpType.SOFTMAX, OpType.FLATTEN,
                 OpType.CONCAT, OpType.IDENTITY):
            steps.append(Step(t.value, op.name, op.inputs, op.out_shape,
                              covers=(op.name,)))
            continue

        raise FusionError(f"no lowering for op type {t} (node {op.name!r})")

    produced = {s.name for s in steps}
    missing = out_set - produced
    if missing:  # pragma: no cover - defensive; fusion preserves outputs
        raise FusionError(f"outputs lost during fusion: {sorted(missing)}")
    return steps


def split_trunk_head(steps: list[Step], outputs: tuple[str, ...]
                     ) -> tuple[list[Step], tuple[str, ...], list[Step]]:
    """Split a fused program where batching starts to pay.

    The *head* is every ``linear`` step plus every step that
    transitively consumes one; the *trunk* is the rest.  A
    fully-connected layer streams its whole weight matrix per call, so
    it wants the largest batch it can get; everything before it has a
    working set that grows with the batch and wants the smallest.  Every
    step kind is sample-independent, so cutting there is always legal.

    Returns ``(trunk, boundary, head)``.  ``boundary`` names the trunk
    tensors that cross the cut: those the head consumes and those that
    are program outputs.  ``head`` starts with one ``input`` step per
    boundary tensor, so it is a self-contained program whose inputs are
    the gathered trunk results.  A program whose trunk would hold no
    compute (an all-``linear`` model) comes back as ``([], (), steps)``.
    """
    in_head: set[str] = set()
    for step in steps:
        if step.kind == "linear" or in_head.intersection(step.inputs):
            in_head.add(step.name)
    trunk = [s for s in steps if s.name not in in_head]
    if all(s.kind == "input" for s in trunk):
        return [], (), list(steps)
    crossing = set(outputs).union(
        *(s.inputs for s in steps if s.name in in_head))
    gathered = [s for s in trunk if s.name in crossing]
    head = [Step("input", s.name, (), s.out_shape, covers=(s.name,))
            for s in gathered]
    head += [s for s in steps if s.name in in_head]
    return trunk, tuple(s.name for s in gathered), head


@dataclass(frozen=True)
class SharedSplit:
    """A trunk cut into what overlapping windows of one raster share
    and what each window runs on its own (:func:`split_shared_prefix`).

    prefix : ``input`` plus the shared conv chain, at the window's
             geometry (:func:`chain_at` re-shapes it for a scene
             chunk); empty when nothing shares.
    suffix : a self-contained program whose ``input`` is the prefix's
             last tensor; the whole trunk when nothing shares.
    stride : pixels per element of the prefix's output (``cs``).
    cut    : name of the fused ``conv_pool`` step whose conv shares and
             whose pool does not, if the cut fell inside one.
    reason : why nothing shares (``None`` when something does).
    """

    prefix: tuple[Step, ...]
    suffix: tuple[Step, ...]
    stride: int = 1
    cut: str | None = None
    reason: str | None = None


#: the decline reasons of :func:`split_shared_prefix`
BRANCHING_TRUNK = "trunk does not start with a single conv chain"
PADDED_FIRST_CONV = "first conv is padded"
LATTICE_SHARES_NOTHING = "origin lattice shares no layer"


def split_shared_prefix(trunk: Sequence[Step], boundary: Sequence[str],
                        lattice: int) -> SharedSplit:
    """Cut a trunk where windows on a ``lattice`` stop sharing results.

    An unpadded convolution or pool is translation-invariant on the
    grid of its cumulative stride: two windows of one raster whose
    origins differ by a multiple of that stride read the *same* output
    elements wherever they overlap.  Walking from the ``input``, a
    ``conv`` / ``conv_pool`` step with ``padding == 0`` extends the
    shared chain while it is the only consumer of the step before it
    and ``lattice`` (the gcd of every window origin coordinate) is a
    multiple of the cumulative stride ``cs`` through it.  When a
    ``conv_pool``'s conv passes that test and its 2x2/s2 pool does not,
    the cut falls inside the fused step: the prefix takes the bare conv
    and the suffix opens with ``maxpool(2, 2, relu=True)`` under the
    fused step's name.  Max and ReLU are exact, so that is the fused
    kernel's arithmetic.

    Pure: the answer depends on the steps and ``lattice`` alone.
    """
    steps = list(trunk)
    whole = SharedSplit((), tuple(steps))
    inputs = [s for s in steps if s.kind == "input"]
    consumers: dict[str, int] = {name: 1 for name in boundary}
    for step in steps:
        for name in step.inputs:
            consumers[name] = consumers.get(name, 0) + 1
    if len(inputs) != 1 or steps[0].kind != "input":
        return replace(whole, reason=BRANCHING_TRUNK)

    prefix = [steps[0]]
    cs, cut, reason = 1, None, LATTICE_SHARES_NOTHING
    for step in steps[1:]:
        prev = prefix[-1]
        if (step.kind not in ("conv", "conv_pool")
                or step.inputs != (prev.name,) or consumers[prev.name] != 1):
            if len(prefix) == 1:
                reason = BRANCHING_TRUNK
            break
        if int(step.attrs["padding"]):
            if len(prefix) == 1:
                reason = PADDED_FIRST_CONV
            break
        cs_conv = cs * int(step.attrs["stride"])
        if lattice % cs_conv:
            break
        if step.kind == "conv" or lattice % (2 * cs_conv) == 0:
            cs = cs_conv * (2 if step.kind == "conv_pool" else 1)
            prefix.append(step)
            continue
        # the conv shares, its fused pool does not: cut inside the step
        conv_name = step.covers[0]
        prefix.append(Step(
            "conv", conv_name, step.inputs, tuple(step.attrs["conv_out"]),
            attrs={**step.attrs, "relu": False}, covers=(conv_name,),
            scratch_elems=step.scratch_elems))
        cs, cut = cs_conv, step.name
        break
    if len(prefix) == 1:
        return replace(whole, reason=reason)

    last = prefix[-1]
    suffix = [Step("input", last.name, (), last.out_shape,
                   covers=(last.name,))]
    rest = steps[len(prefix):]
    if cut is not None:
        fused = steps[len(prefix) - 1]
        suffix.append(Step(
            "maxpool", fused.name, (last.name,), fused.out_shape,
            attrs={"kernel": 2, "stride": 2, "relu": True},
            covers=fused.covers[1:]))
    return SharedSplit(tuple(prefix), tuple(suffix + rest), cs, cut)


def chain_at(steps: Sequence[Step], shape: tuple[int, int, int]
             ) -> list[Step]:
    """Trunk steps, ``input`` first, re-shaped for an input of ``shape =
    (C, H, W)``: the same kernels over a scene chunk (a shared prefix)
    or over a window's read extent (:func:`read_extent`)."""
    shapes: dict[str, tuple[int, ...]] = {}
    out = []
    for step in steps:
        kind, attrs, scratch = step.kind, step.attrs, step.scratch_elems
        src = shapes.get(step.inputs[0]) if step.inputs else None
        if kind == "input":
            new = tuple(shape)
        elif kind in ("conv", "conv_pool"):
            f = int(attrs["out_channels"])
            h, w = conv_out_hw(src[1], src[2], int(attrs["kernel"]),
                               int(attrs["stride"]), int(attrs["padding"]))
            if kind == "conv_pool":
                attrs = {**attrs, "conv_out": (f, h, w)}
                h, w = h // 2, w // 2
            new = (f, h, w)
        elif kind in ("maxpool", "maxpool_flatten", "adaptive_pool",
                      "adaptive_pool_flatten"):
            if kind.startswith("maxpool"):
                h, w = conv_out_hw(src[1], src[2], int(attrs["kernel"]),
                                   int(attrs["stride"]), 0)
            else:
                h = w = int(attrs["output_size"])
            new = (src[0], h, w)
            if kind.endswith("_flatten"):
                # the pooled staging buffer before the reorder
                scratch = _elems(new)
                new = (scratch,)
        elif kind == "flatten":
            new = (_elems(src),)
        elif kind == "concat":
            parts = [shapes[name] for name in step.inputs]
            new = (sum(part[0] for part in parts),) + parts[0][1:]
        else:   # elementwise: relu, sigmoid, softmax, identity
            new = src
        shapes[step.name] = new
        out.append(replace(step, out_shape=new, attrs=attrs,
                           scratch_elems=scratch))
    return out


#: the decline reasons of :func:`read_extent`
PADDED_STEP = "trunk has a padded step"
EXTENT_CHANGES_SHAPE = "binding at the read extent changes a shape it reads"


def _whole(shape: tuple[int, ...]) -> tuple[int, int] | None:
    """All of a tensor's ``(H, W)``; ``None`` for a flat tensor."""
    return (int(shape[1]), int(shape[2])) if len(shape) == 3 else None


def _read_by(step: Step, demand: tuple[int, int] | None,
             in_shape: tuple[int, ...]) -> tuple[int, int] | None:
    """The top-left ``(H, W)`` of ``step``'s input that the top-left
    ``demand`` of its output reads (``None`` for a flat input)."""
    if len(in_shape) != 3:
        return None
    kind = step.kind
    if kind in ("conv", "conv_pool", "maxpool", "maxpool_flatten"):
        k, s = int(step.attrs["kernel"]), int(step.attrs["stride"])
        if demand is None:      # flattened: every pooled element
            demand = conv_out_hw(in_shape[1], in_shape[2], k, s, 0)
        # a fused 2x2/s2 pool's output element reads two conv rows
        per = 2 if kind == "conv_pool" else 1
        return ((per * demand[0] - 1) * s + k, (per * demand[1] - 1) * s + k)
    if demand is not None and kind in ("relu", "sigmoid", "softmax",
                                       "identity", "concat"):
        return demand
    # adaptive pools, flatten and anything else read their whole input
    return _whole(in_shape)


def read_extent(trunk: Sequence[Step], boundary: Sequence[str]
                ) -> tuple[int, int, str | None]:
    """The top-left ``(h, w)`` of the trunk's input that every boundary
    element reads, and ``None`` — or the whole input and the fixed
    reason the trunk must read all of it.

    Walks the steps backward from the boundary tensors, each demanded
    whole: a conv or max pool's top-left ``d`` output elements read
    ``(d - 1) * s + k`` input elements per axis, a fused ``conv_pool``'s
    ``(2d - 1) * s + k``; adaptive / SPP pools and flatten read their
    whole input; ReLU, concat and the other elementwise steps pass the
    demand through, and a tensor with several consumers takes the
    largest.  An unpadded, floor-mode trunk bound at ``(C, h, w)``
    computes every element the boundary reads from the same pixels with
    the same arithmetic, and only drops the GEMM rows nothing reads.
    Declines with a padded step (its border moves with the input
    extent), or when the trunk re-shaped at the extent (:func:`chain_at`)
    would give a boundary tensor, or a tensor read whole (the map an SPP
    pools), another shape, or leave a tensor short of its demand.

    Pure: the answer depends on the steps alone.
    """
    steps = list(trunk)
    channels, height, width = steps[0].out_shape
    if any(int(step.attrs.get("padding", 0)) for step in steps):
        return height, width, PADDED_STEP
    shapes = {step.name: step.out_shape for step in steps}
    demand = {name: _whole(shapes[name]) for name in boundary}
    for step in reversed(steps[1:]):
        out = demand.get(step.name, _whole(step.out_shape))
        for name in step.inputs:
            need = _read_by(step, out, shapes[name])
            if need is not None:
                have = demand.get(name) or need
                demand[name] = (max(have[0], need[0]), max(have[1], need[1]))
    h, w = demand.get(steps[0].name) or (height, width)
    h, w = min(h, height), min(w, width)
    at = {step.name: step.out_shape
          for step in chain_at(steps, (channels, h, w))}
    for name, need in demand.items():
        if name in boundary or need in (None, _whole(shapes[name])):
            kept = at[name] == shapes[name]
        else:
            kept = at[name][1] >= need[0] and at[name][2] >= need[1]
        if not kept:
            return height, width, EXTENT_CHANGES_SHAPE
    return h, w, None
