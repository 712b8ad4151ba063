"""Static analysis of IR operators: FLOPs, DRAM traffic, and footprints.

These quantities feed the roofline cost model in :mod:`repro.gpusim`.
All counts are *per execution at a given batch size*; weights are counted
once per kernel invocation (a GEMM streams its weight matrix regardless of
batch, which is exactly why fully-connected layers dominate small-batch
inference — Table 3's 41.6% matmul share at batch 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .ir import Graph, Operator, OpType

__all__ = ["OpCost", "op_cost", "weight_bytes", "activation_bytes"]

_DTYPE_BYTES = 4  # fp32 inference throughout, matching the paper's setup


@dataclass(frozen=True)
class OpCost:
    """Resource requirements of one operator execution.

    flops : floating point operations (multiply-adds counted as 2).
    dram_bytes : bytes moved to/from device memory (inputs + weights + outputs).
    threads : degree of data parallelism (one thread per output element).
    weight_bytes : parameter bytes the kernel must stream (subset of dram_bytes).
    """

    flops: float
    dram_bytes: float
    threads: int
    weight_bytes: float = 0.0


def _in_elems(graph: Graph, op: Operator) -> int:
    total = 0
    for dep in op.inputs:
        total += graph[dep].out_elems
    return total


def op_cost(graph: Graph, op: Operator, batch: int) -> OpCost:
    """Compute the :class:`OpCost` of ``op`` at ``batch`` samples."""
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    b = batch
    out = op.out_elems

    if op.op_type is OpType.INPUT:
        return OpCost(0.0, 0.0, 0)

    if op.op_type is OpType.CONV2D:
        c_in = int(op.attr("in_channels"))
        k = int(op.attr("kernel"))
        f, ho, wo = op.out_shape
        macs = b * ho * wo * f * c_in * k * k
        w_bytes = f * c_in * k * k * _DTYPE_BYTES
        io_bytes = (b * _in_elems(graph, op) + b * out) * _DTYPE_BYTES
        return OpCost(2.0 * macs, io_bytes + w_bytes, b * out, w_bytes)

    if op.op_type is OpType.LINEAR:
        f_in = int(op.attr("in_features"))
        f_out = out
        macs = b * f_in * f_out
        w_bytes = (f_in * f_out + f_out) * _DTYPE_BYTES
        io_bytes = (b * f_in + b * f_out) * _DTYPE_BYTES
        return OpCost(2.0 * macs, io_bytes + w_bytes, b * f_out, w_bytes)

    if op.op_type is OpType.MAXPOOL:
        k = int(op.attr("kernel"))
        compares = b * out * k * k
        io_bytes = (b * _in_elems(graph, op) + b * out) * _DTYPE_BYTES
        return OpCost(float(compares), io_bytes, b * out)

    if op.op_type is OpType.ADAPTIVE_MAXPOOL:
        in_size = int(op.attr("in_size"))
        n = int(op.attr("output_size"))
        # Each output bin scans roughly (in/n)^2 elements.
        region = max(1, in_size // n) ** 2
        compares = b * out * region
        io_bytes = (b * _in_elems(graph, op) + b * out) * _DTYPE_BYTES
        return OpCost(float(compares), io_bytes, b * out)

    if op.op_type in (OpType.RELU, OpType.IDENTITY, OpType.FLATTEN):
        io_bytes = 2 * b * out * _DTYPE_BYTES
        return OpCost(float(b * out), io_bytes, b * out)

    if op.op_type is OpType.CONCAT:
        io_bytes = 2 * b * out * _DTYPE_BYTES
        return OpCost(0.0, io_bytes, b * out)

    if op.op_type is OpType.SOFTMAX:
        io_bytes = 2 * b * out * _DTYPE_BYTES
        return OpCost(5.0 * b * out, io_bytes, b * out)

    if op.op_type is OpType.SIGMOID:
        io_bytes = 2 * b * out * _DTYPE_BYTES
        return OpCost(4.0 * b * out, io_bytes, b * out)

    if op.op_type is OpType.ADD:
        io_bytes = 3 * b * out * _DTYPE_BYTES
        return OpCost(float(b * out), io_bytes, b * out)

    raise ValueError(f"no cost model for op type {op.op_type}")  # pragma: no cover


def weight_bytes(graph: Graph) -> float:
    """Total parameter bytes resident on the device."""
    return sum(op_cost(graph, op, 1).weight_bytes for op in graph.nodes())


def activation_bytes(graph: Graph, batch: int) -> float:
    """Peak-ish activation memory: sum of all live per-op outputs.

    A conservative (upper-bound) estimate: every intermediate output held
    simultaneously.  Used for the Figure 7 "far below 24 GB" check.
    """
    return sum(batch * op.out_elems * _DTYPE_BYTES for op in graph.compute_nodes())
