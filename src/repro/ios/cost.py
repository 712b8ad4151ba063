"""Schedule latency measurement on the simulated GPU.

The IOS paper *measures* candidate stages on the device rather than
trusting an analytic model; here the measured quantity is a fresh
:class:`~repro.gpusim.GraphExecutor` run, so DP cost (built from
``plan_stage``) and measured cost agree by construction — a property the
test suite asserts.
"""

from __future__ import annotations

from ..gpusim.device import DeviceSpec
from ..gpusim.executor import GraphExecutor, RunResult
from ..graph.ir import Graph
from .schedule import Schedule

__all__ = ["measure_schedule", "measure_latency", "schedule_overheads"]


def measure_schedule(
    graph: Graph,
    schedule: Schedule,
    device: DeviceSpec | None = None,
) -> RunResult:
    """Run ``schedule`` once on a fresh simulated device and return the
    full :class:`RunResult` (latency, stage breakdown, trace, memory)."""
    executor = GraphExecutor(graph, device=device)
    return executor.run(schedule, schedule.batch)


def measure_latency(
    graph: Graph,
    schedule: Schedule,
    device: DeviceSpec | None = None,
) -> float:
    """End-to-end inference latency of ``schedule`` in microseconds."""
    return measure_schedule(graph, schedule, device).latency_us


def schedule_overheads(result: RunResult) -> dict[str, float]:
    """Decompose a run into device kernel time vs host overheads (us).

    Returns keys ``kernel``, ``sync``, ``launch``, ``memcpy``, ``other``;
    useful for explaining *where* IOS wins over the sequential schedule.
    """
    kernel = sum(e.duration_us for e in result.trace.kernels)
    api = result.trace.api_time_by_name()
    sync = api.get("cudaStreamSynchronize", 0.0) + api.get("cudaDeviceSynchronize", 0.0)
    launch = api.get("cudaLaunchKernel", 0.0)
    memcpy = api.get("cudaMemcpyAsync", 0.0)
    other = sum(api.values()) - sync - launch - memcpy
    return {
        "kernel": kernel,
        "sync": sync,
        "launch": launch,
        "memcpy": memcpy,
        "other": other,
        "total": result.latency_us,
    }
