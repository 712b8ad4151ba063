"""The BLAS under numpy's matrix products, and its thread count.

Every engine GEMM runs in the BLAS numpy links, and its output bits
depend on that library, its kernel and its thread count: at 1 against 2
OpenBLAS threads, 120 of the 121 windows of a 600 px scan differ
(docs/engine.md, "Bitwise, per program shape and per BLAS").  This
module is the only one that reaches the library.  :func:`blas_info`
says what it is and how many threads it runs; :func:`set_blas_threads`
changes the count for this process.  Nothing runs at import: the first
call opens the library through numpy's own extension and names it from
this process's memory map, once.
"""

from __future__ import annotations

import ctypes
import functools
import os
from pathlib import Path
from typing import NamedTuple

from .retry import Permanent

__all__ = ["BlasError", "blas_info", "set_blas_threads"]

#: ``(prefix, suffix)`` of OpenBLAS's exported names: numpy's bundled
#: scipy-openblas (64-bit then 32-bit integers), then plain builds
_MANGLINGS = (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
              ("openblas_", "64_"), ("openblas_", ""))
_FUNCTIONS = {"get_config": ([], ctypes.c_char_p),
              "get_corename": ([], ctypes.c_char_p),
              "get_num_threads": ([], ctypes.c_int),
              "set_num_threads": ([ctypes.c_int], None)}


class BlasError(RuntimeError, Permanent):
    """The BLAS thread count cannot be set in this process."""


class _Library(NamedTuple):
    name: str | None              # the mapped file's name
    functions: dict               # _FUNCTIONS' names -> ctypes functions
    why: str | None               # why ``name`` or ``functions`` is missing


@functools.cache
def _library() -> _Library:
    """numpy's BLAS, opened without loading anything new
    (``RTLD_NOLOAD``).  Its functions are looked up through numpy's core
    extension, whose dependencies that lookup searches, so another
    package's BLAS in this process (scipy maps its own OpenBLAS) is
    never taken for numpy's."""
    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:                   # numpy 1.x
        from numpy.core import _multiarray_umath as core
    try:
        lib = ctypes.CDLL(core.__file__, mode=os.RTLD_NOLOAD)
    except OSError as exc:
        return _Library(None, {}, f"cannot open numpy's core: {exc}")
    for prefix, suffix in _MANGLINGS:
        found = {name: getattr(lib, prefix + name + suffix, None)
                 for name in _FUNCTIONS}
        if all(found.values()):
            break
    else:
        return _Library(None, {}, "numpy's BLAS exports no OpenBLAS thread "
                                  "functions")
    for name, (argtypes, restype) in _FUNCTIONS.items():
        found[name].argtypes = argtypes
        found[name].restype = restype
    address = ctypes.cast(found["get_num_threads"], ctypes.c_void_p).value
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                span, *rest = line.split(maxsplit=5)
                low, high = (int(end, 16) for end in span.split("-"))
                if low <= address < high and len(rest) == 5:
                    return _Library(Path(rest[4].strip()).name, found, None)
    except OSError as exc:
        return _Library(None, found, f"cannot read the memory map: {exc}")
    return _Library(None, found, "no mapped file holds numpy's BLAS")


def blas_info() -> dict:
    """``{"library", "version", "kernel", "threads", "why"}`` of the BLAS
    numpy runs on: the mapped file's name, OpenBLAS's version and core
    kernel (``"0.3.31.188.0"``, ``"SkylakeX"``) and the thread count the
    next GEMM uses.  A value that cannot be read is ``None`` and ``why``
    says why; ``why`` is ``None`` when all four were read."""
    lib = _library()
    info = {"library": lib.name, "version": None, "kernel": None,
            "threads": None, "why": lib.why}
    if lib.functions:
        config = lib.functions["get_config"]().decode().split()
        info.update(
            version=config[1] if config[:1] == ["OpenBLAS"] else None,
            kernel=lib.functions["get_corename"]().decode(),
            threads=int(lib.functions["get_num_threads"]()))
    return info


def set_blas_threads(n: int) -> None:
    """Run this process's BLAS on ``n`` threads from the next GEMM on.

    Raises :class:`BlasError`, with the count unchanged, when the
    library cannot be set or does not take ``n`` (OpenBLAS caps it at
    its build's ``MAX_THREADS``)."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"BLAS threads must be an int >= 1, got {n!r}")
    lib = _library()
    if not lib.functions:
        raise BlasError(f"cannot set the BLAS thread count: {lib.why}")
    before = lib.functions["get_num_threads"]()
    lib.functions["set_num_threads"](n)
    got = lib.functions["get_num_threads"]()
    if got != n:
        lib.functions["set_num_threads"](before)
        raise BlasError(f"{lib.name} was asked for {n} threads and runs {got}")
