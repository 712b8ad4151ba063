"""repro.gpusim — simulated NVIDIA RTX A5500 (DESIGN.md substitution table).

Roofline kernel cost model, CUDA stream/timeline simulation, device memory
accounting, and a traced CUDA-API facade that the Nsight-like profiler in
:mod:`repro.profiling` consumes.
"""

from .consistency import TraceInconsistency, check_trace_consistency
from .device import RTX_A5500, DeviceSpec
from .executor import (
    GraphExecutor,
    RunResult,
    ScheduleError,
    sequential_stages,
    validate_stages,
)
from .kernels import KernelCostModel, KernelSpec, categorize, kernel_name
from .memory import Allocation, DeviceMemory, OutOfMemoryError
from .runtime import ApiEvent, CudaRuntime, KernelEvent, MemcpyEvent, Trace

__all__ = [
    "DeviceSpec",
    "RTX_A5500",
    "KernelCostModel",
    "KernelSpec",
    "categorize",
    "kernel_name",
    "DeviceMemory",
    "Allocation",
    "OutOfMemoryError",
    "CudaRuntime",
    "Trace",
    "ApiEvent",
    "KernelEvent",
    "MemcpyEvent",
    "GraphExecutor",
    "RunResult",
    "ScheduleError",
    "sequential_stages",
    "validate_stages",
    "TraceInconsistency",
    "check_trace_consistency",
]
