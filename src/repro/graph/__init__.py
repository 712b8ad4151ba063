"""repro.graph — computation-graph IR, builder, and static analysis."""

from .analysis import OpCost, activation_bytes, op_cost, weight_bytes
from .builder import build_inception_graph, build_sppnet_graph
from .ir import Graph, GraphError, Operator, OpType

__all__ = [
    "Graph",
    "GraphError",
    "Operator",
    "OpType",
    "build_sppnet_graph",
    "build_inception_graph",
    "OpCost",
    "op_cost",
    "weight_bytes",
    "activation_bytes",
]
