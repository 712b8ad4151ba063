"""Simulated CUDA runtime: host clock, streams, and a full API trace.

Every simulated driver/runtime call (``cudaMalloc``, ``cudaMemcpyAsync``,
``cudaLaunchKernel``, ``cudaDeviceSynchronize``, ``cuLibraryLoadData``,
stream management) advances the host clock and appends a trace event.
Kernels execute on per-stream device timelines that may run ahead of the
host — exactly the asynchrony that makes ``cudaDeviceSynchronize`` grow
with batch size in the paper's Figure 8.

All times are microseconds from session start.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .device import DeviceSpec
from .kernels import KernelSpec
from .memory import Allocation, DeviceMemory

__all__ = ["ApiEvent", "KernelEvent", "MemcpyEvent", "Trace", "CudaRuntime"]


@dataclass(frozen=True)
class ApiEvent:
    """A host-side CUDA API call."""

    name: str
    start_us: float
    duration_us: float

    @property
    def end_us(self) -> float:
        return self.start_us + self.duration_us


@dataclass(frozen=True)
class KernelEvent:
    """A device-side kernel execution.

    ``utilization`` is the fraction of device throughput the kernel
    actually used (its full-device work time over its runtime) — 1.0 for
    saturating kernels, small for occupancy-limited ones.
    """

    kernel: str
    category: str
    op_name: str
    stream: int
    start_us: float
    duration_us: float
    utilization: float = 1.0

    @property
    def end_us(self) -> float:
        return self.start_us + self.duration_us


@dataclass(frozen=True)
class MemcpyEvent:
    """A device memory operation (the "GPU memops" of Figure 7)."""

    kind: str  # "H2D", "D2H" or "D2D"
    nbytes: int
    start_us: float
    duration_us: float

    @property
    def end_us(self) -> float:
        return self.start_us + self.duration_us


@dataclass
class Trace:
    """Ordered event record of one simulated session."""

    api: list[ApiEvent] = field(default_factory=list)
    kernels: list[KernelEvent] = field(default_factory=list)
    memcpy: list[MemcpyEvent] = field(default_factory=list)

    def api_time_by_name(self) -> dict[str, float]:
        """Total host time per API name (Figure 8's raw data)."""
        totals: dict[str, float] = {}
        for event in self.api:
            totals[event.name] = totals.get(event.name, 0.0) + event.duration_us
        return totals

    def kernel_time_by_category(self) -> dict[str, float]:
        """Total device kernel time per category (Table 3's raw data)."""
        totals: dict[str, float] = {}
        for event in self.kernels:
            totals[event.category] = totals.get(event.category, 0.0) + event.duration_us
        return totals

    def memcpy_time(self) -> float:
        return sum(e.duration_us for e in self.memcpy)

    def memcpy_bytes(self) -> int:
        return sum(e.nbytes for e in self.memcpy)

    def extend(self, other: "Trace") -> None:
        self.api.extend(other.api)
        self.kernels.extend(other.kernels)
        self.memcpy.extend(other.memcpy)


class CudaRuntime:
    """Host + device timeline simulation behind a CUDA-like API surface."""

    def __init__(self, device: DeviceSpec | None = None) -> None:
        self.device = device if device is not None else DeviceSpec()
        self.trace = Trace()
        self.memory = DeviceMemory(capacity=self.device.dram_capacity_bytes)
        self.host_time: float = 0.0
        self._stream_frontier: dict[int, float] = {0: 0.0}
        self._next_stream = 1
        self._session_initialized = False

    # -- internals --------------------------------------------------------
    def _api(self, name: str, duration: float) -> ApiEvent:
        event = ApiEvent(name, self.host_time, duration)
        self.trace.api.append(event)
        self.host_time += duration
        return event

    @property
    def device_busy_until(self) -> float:
        return max(self._stream_frontier.values())

    # -- session ------------------------------------------------------------
    def init_session(self) -> None:
        """Simulate CUDA context creation and kernel-module loading.

        ``cuLibraryLoadData`` is called once per kernel module; the total is
        calibrated to the seconds-scale module loading ``nsys`` attributes
        to a PyTorch/cuDNN process (the dominant API at batch 1 in Fig. 8).
        """
        if self._session_initialized:
            return
        self._api("cuInit", 90_000.0)
        self._api("cuDevicePrimaryCtxRetain", 40_000.0)
        n = self.device.library_load_calls
        total = self.device.library_load_total_us
        # A few large cubin modules plus a tail of small ones.
        big = int(0.6 * total)
        self._api("cuLibraryLoadData", big)
        for _ in range(n - 1):
            self._api("cuLibraryLoadData", (total - big) / (n - 1))
        self._session_initialized = True

    # -- memory ---------------------------------------------------------------
    def malloc(self, size: int, tag: str = "") -> Allocation:
        self._api("cudaMalloc", self.device.malloc_us)
        return self.memory.alloc(int(size), self.host_time, tag)

    def free(self, allocation: Allocation) -> None:
        self._api("cudaFree", self.device.free_us)
        self.memory.free(allocation, self.host_time)

    # -- transfers -------------------------------------------------------------
    def _memcpy(self, kind: str, nbytes: int) -> None:
        transfer = 1e6 * nbytes / self.device.pcie_bandwidth
        duration = self.device.memcpy_overhead_us + transfer
        # Synchronous copy: does not start until the device drained.
        start = max(self.host_time, self.device_busy_until)
        api_name = "cudaMemcpyAsync"
        self.trace.api.append(ApiEvent(api_name, self.host_time,
                                       (start - self.host_time) + duration))
        self.trace.memcpy.append(MemcpyEvent(kind, int(nbytes), start, duration))
        self.host_time = start + duration

    def memcpy_h2d(self, nbytes: int) -> None:
        self._memcpy("H2D", nbytes)

    def memcpy_d2h(self, nbytes: int) -> None:
        self._memcpy("D2H", nbytes)

    # -- streams ------------------------------------------------------------------
    def stream_create(self) -> int:
        self._api("cudaStreamCreate", self.device.stream_create_us)
        stream = self._next_stream
        self._next_stream += 1
        self._stream_frontier[stream] = self.host_time
        return stream

    # -- kernels ----------------------------------------------------------------
    def launch_kernel(self, spec: KernelSpec, duration_us: float, stream: int = 0,
                      kernel_symbol: str | None = None) -> KernelEvent:
        """Asynchronously launch a kernel on ``stream``.

        The host pays only the launch overhead; the kernel begins once both
        the launch returns and the stream's previous work finished.
        """
        if stream not in self._stream_frontier:
            raise ValueError(f"unknown stream {stream}")
        self._api("cudaLaunchKernel", self.device.kernel_launch_us)
        start = max(self.host_time, self._stream_frontier[stream])
        event = KernelEvent(
            kernel=kernel_symbol or spec.op_name,
            category=spec.category,
            op_name=spec.op_name,
            stream=stream,
            start_us=start,
            duration_us=duration_us,
            utilization=min(1.0, spec.work_us / duration_us) if duration_us > 0 else 0.0,
        )
        self.trace.kernels.append(event)
        self._stream_frontier[stream] = event.end_us
        return event

    # -- synchronization -------------------------------------------------------------
    def stage_sync(self, streams: list[int] | None = None) -> float:
        """Barrier at an IOS stage boundary (event/stream synchronize)."""
        frontiers = (
            [self._stream_frontier[s] for s in streams]
            if streams
            else list(self._stream_frontier.values())
        )
        wait = max(0.0, max(frontiers, default=0.0) - self.host_time)
        self._api("cudaStreamSynchronize", wait + self.device.stage_sync_us)
        # All streams observed the barrier.
        barrier = self.host_time
        for s in self._stream_frontier:
            self._stream_frontier[s] = max(self._stream_frontier[s], barrier)
        return wait

    def device_synchronize(self) -> float:
        """``cudaDeviceSynchronize``: wait until the whole device drained."""
        wait = max(0.0, self.device_busy_until - self.host_time)
        self._api("cudaDeviceSynchronize", wait + self.device.device_sync_base_us)
        barrier = self.host_time
        for s in self._stream_frontier:
            self._stream_frontier[s] = barrier
        return wait
