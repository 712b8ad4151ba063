"""What the machine was and what it was doing: fingerprint, /proc
readers, and two probes that tell a moved machine from moved code."""

from __future__ import annotations

import hashlib
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

__all__ = [
    "cpu_seconds",
    "peak_rss_mb",
    "rss_mb",
    "StealMeter",
    "ref_gemm_ms",
    "SpeedProbe",
    "machine_info",
    "fingerprint",
    "git_sha",
]

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pids, user_only: bool = False) -> float:
    """utime + stime (or utime alone) of ``pids``, all threads of each,
    in seconds.

    Field 2 (comm) may contain spaces and parentheses, so fields are
    counted from the last ``)``: utime and stime are then items 11, 12.
    A process that has already exited contributes nothing further.
    """
    total = 0.0
    for pid in pids:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        ticks = int(fields[11]) + (0 if user_only else int(fields[12]))
        total += ticks / _CLK_TCK
    return total


def _status_mb(pids, key: str) -> float:
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith(key + ":"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


def peak_rss_mb(pids) -> float:
    """Sum of VmHWM (resident high-water mark) over ``pids``."""
    return _status_mb(pids, "VmHWM")


def rss_mb(pids) -> float:
    return _status_mb(pids, "VmRSS")


class StealMeter:
    """Share of machine CPU time the hypervisor gave to someone else
    between construction and :meth:`fraction` (``/proc/stat`` line 1)."""

    def __init__(self) -> None:
        self._start = self._read()

    @staticmethod
    def _read() -> tuple[int, int]:
        values = [int(v) for v in
                  Path("/proc/stat").read_text().splitlines()[0].split()[1:]]
        steal = values[7] if len(values) > 7 else 0
        return steal, sum(values[:8])

    def fraction(self) -> float:
        steal, total = self._read()
        d_total = total - self._start[1]
        return (steal - self._start[0]) / d_total if d_total else 0.0


_GEMM_N = 512
_gemm_operands: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


def ref_gemm_ms() -> float:
    """One fixed 512x512x512 float32 matmul, in ms.  Run between passes:
    if its median differs >10% between two result sets, the machine
    moved, not the code."""
    global _gemm_operands
    if _gemm_operands is None:
        rng = np.random.default_rng(0)
        a = rng.random((_GEMM_N, _GEMM_N), dtype=np.float32)
        b = rng.random((_GEMM_N, _GEMM_N), dtype=np.float32)
        _gemm_operands = (a, b, np.empty_like(a))
        np.matmul(a, b, out=_gemm_operands[2])       # first-touch
    a, b, out = _gemm_operands
    start = time.perf_counter()
    np.matmul(a, b, out=out)
    return (time.perf_counter() - start) * 1e3


class SpeedProbe:
    """How fast the machine is right now, from a fixed numpy-only kernel
    shaped like the program's hot loop: a 3x3 window gather of an
    (8, 64, 49, 49) float32 stack into columns, one sgemm with (128, 576)
    weights, a ReLU -- the model's second conv layer at batch 8, on the
    BLAS threads the program itself uses.

    The reference box is a shared 2-core VM whose speed drifts by 10-20%
    over minutes (same code, same seed, same kernels), which no statistic
    over one run's passes can remove.  The probe runs between passes and
    drifts with the program (r = 0.9 over 16 runs), so a pass's time
    divided by :meth:`slowdown` around it repeats about twice as closely
    as the raw time.  It calls nothing in ``repro``: no change to the
    program can move it.
    """

    #: the kernel's median on the reference box (fingerprint 95258cd88437)
    #: when quiet; `slowdown` is relative to this, so corrected times stay
    #: in the units, and on that box the magnitude, of the raw ones
    NOMINAL_MS = 26.0
    CALLS = 3               # per sample; the sample is their median

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._x = rng.random((8, 64, 49, 49), dtype=np.float32)
        self._w = rng.random((128, 576), dtype=np.float32)
        self._cols = np.empty((576, 8 * 47 * 47), dtype=np.float32)
        self._out = np.empty((128, 8 * 47 * 47), dtype=np.float32)
        self.samples_ms: list[float] = []
        self._kernel()              # first touch of the buffers

    def _kernel(self) -> None:
        windows = np.lib.stride_tricks.sliding_window_view(
            self._x, (3, 3), axis=(2, 3))            # (8, 64, 47, 47, 3, 3)
        self._cols.reshape(64, 3, 3, 8, 47, 47)[...] = windows.transpose(
            1, 4, 5, 0, 2, 3)
        np.matmul(self._w, self._cols, out=self._out)
        np.maximum(self._out, 0.0, out=self._out)

    def sample(self) -> float:
        """Median of CALLS timed kernel calls, in ms (also kept)."""
        walls = []
        for _ in range(self.CALLS):
            start = time.perf_counter()
            self._kernel()
            walls.append(time.perf_counter() - start)
        walls.sort()
        self.samples_ms.append(walls[len(walls) // 2] * 1e3)
        return self.samples_ms[-1]

    @classmethod
    def slowdown(cls, before_ms: float, after_ms: float) -> float:
        """How many times slower than nominal the machine ran over an
        interval with these samples at its two ends."""
        return (before_ms + after_ms) / 2.0 / cls.NOMINAL_MS


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_info() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return {"name": blas.get("name", "unknown"),
                "version": blas.get("version", "unknown")}
    except (TypeError, KeyError):       # numpy < 1.25 has no dicts mode
        return {"name": "unknown", "version": "unknown"}


def git_sha(root: Path) -> str:
    """HEAD's sha read from ``root/.git`` (no subprocess, no search of
    parent directories); "unknown" in an exported checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref:"):
            return head
        ref = head.split(None, 1)[1]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_info() -> dict:
    """The facts two result sets must share to be comparable."""
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count() or 1
    return {
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "nproc": os.cpu_count() or 1,
        "affinity": affinity,
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": np.__version__,
        "blas": _blas_info(),
    }


def fingerprint(info: dict | None = None) -> str:
    """Short stable id of :func:`machine_info` — names the baseline file."""
    info = info if info is not None else machine_info()
    text = repr(sorted((k, repr(v)) for k, v in info.items()))
    return hashlib.sha1(text.encode()).hexdigest()[:12]
