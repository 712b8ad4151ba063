"""Deterministic fault injection for resilience tests and benchmarks.

Two families, both seeded or scripted and never wall-clock dependent, so
a test that injects a 20% failure rate injects *the same* failures on
every run:

* **Call-level wrappers** that make a callable misbehave on purpose —
  flaky (seeded random failures), fail-first (a transient outage) and
  fatal-on (poisoned inputs) — plus :class:`FaultyEngine`, the same
  outage and stall scripted into the compiled program behind a
  guarded engine.
* **Data-level corruption injectors** that degrade (C, H, W) imagery the
  way production NAIP tiles actually degrade — NaN pepper, nodata holes,
  dropped bands, saturation stripes, truncated edge tiles — plus
  :func:`corrupt_scene` to damage a seeded fraction of a scene's tiles.
* **Process-level worker faults** for the fleet chaos suite —
  :class:`FaultyDetector` wraps a picklable model so scripted engine
  calls hang, die (SIGKILL), stall, or raise *inside pool worker
  processes*, each fault firing exactly once across the whole worker
  fleet via an atomic filesystem fuse; :func:`tear_trailing_line`
  manufactures the torn-JSONL crash artifact the journal repair path
  recovers from.

Used by the NAS retry/quarantine tests, the serving circuit-breaker
tests, the ``repro.robust`` sanitizer tests, the ``repro.fleet`` chaos
suite, and ``benchmarks/bench_resilience.py`` /
``benchmarks/bench_robustness.py`` / ``benchmarks/bench_fleet.py``.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .retry import Permanent

__all__ = [
    "InjectedFault",
    "PoisonedInput",
    "Flaky",
    "FailFirst",
    "FatalOn",
    "FaultyEngine",
    "Corruption",
    "NaNPepper",
    "NodataHoles",
    "DropBand",
    "SaturateStripe",
    "TruncateTile",
    "default_injectors",
    "corrupt_scene",
    "WorkerFaultPlan",
    "FaultyDetector",
    "tear_trailing_line",
]


class InjectedFault(RuntimeError):
    """The failure raised by every fault wrapper (so tests can tell an
    injected fault from a genuine bug)."""


class PoisonedInput(InjectedFault, Permanent):
    """:class:`FatalOn`'s failure: the same input fails every time, so
    :func:`repro.retry.retryable` refuses it."""


class Flaky:
    """Fail each call independently with probability ``rate``.

    Decisions come from a seeded generator keyed only by call order, so a
    replay with the same seed injects faults at the same call indices.
    Thread-safe: concurrent callers draw from one lock-protected stream.
    """

    def __init__(self, fn: Callable, rate: float, seed: int = 0,
                 exc: type[Exception] = InjectedFault) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        self.fn = fn
        self.rate = rate
        self.exc = exc
        self.calls = 0
        self.faults = 0
        self._rng = np.random.default_rng(seed)
        self._lock = threading.Lock()

    def __call__(self, *args, **kwargs):
        with self._lock:
            self.calls += 1
            fail = self._rng.random() < self.rate
            if fail:
                self.faults += 1
        if fail:
            raise self.exc(f"injected fault (call #{self.calls})")
        return self.fn(*args, **kwargs)


class FailFirst:
    """Fail the first ``n`` calls, then delegate forever after.

    The canonical transient outage: a retry loop (or a circuit breaker's
    half-open probe) sees the failure window end deterministically.
    """

    def __init__(self, fn: Callable, n: int,
                 exc: type[Exception] = InjectedFault) -> None:
        if n < 0:
            raise ValueError("n must be >= 0")
        self.fn = fn
        self.n = n
        self.calls = 0
        self.exc = exc
        self._lock = threading.Lock()

    def __call__(self, *args, **kwargs):
        with self._lock:
            self.calls += 1
            fail = self.calls <= self.n
        if fail:
            raise self.exc(f"injected fault (call {self.calls}/{self.n})")
        return self.fn(*args, **kwargs)


class FatalOn:
    """Always fail for inputs whose key is in ``poisoned``.

    ``key`` maps the call arguments to a hashable key (default: ``repr``
    of the first positional argument).  Retries never help — this is the
    quarantine path's fault model, and the default ``exc``
    (:class:`PoisonedInput`) is :class:`~repro.retry.Permanent`.
    """

    def __init__(self, fn: Callable, poisoned: set, key: Callable | None = None,
                 exc: type[Exception] = PoisonedInput) -> None:
        self.fn = fn
        self.poisoned = set(poisoned)
        self.key = key if key is not None else (lambda *a, **k: repr(a[0]))
        self.exc = exc
        self.faults = 0
        self._lock = threading.Lock()

    def __call__(self, *args, **kwargs):
        if self.key(*args, **kwargs) in self.poisoned:
            with self._lock:
                self.faults += 1
            raise self.exc("injected fatal fault (poisoned input)")
        return self.fn(*args, **kwargs)


class FaultyEngine:
    """The compiled program of a :class:`repro.robust.GuardedEngine`
    behind one fault script, for the serving layer's tests and
    benchmarks.

    Stands in for the compiled program (``predict_stream``), delegating
    to the real one; :meth:`guarded` builds the guard to hand to
    ``InferenceService(engine=...)``.

    * ``failures``: the next this-many compiled calls raise
      :class:`InjectedFault`, each counting it down by one: the failure
      the service's retries and breaker exist for.  Set it at any time
      to start or end an outage.
    * ``delay_s``: every compiled call stalls this long first, keeping
      the service's model thread busy (backpressure, deadline,
      shutdown).
    """

    def __init__(self, model, failures: int = 0, delay_s: float = 0.0) -> None:
        if failures < 0 or delay_s < 0:
            raise ValueError("failures and delay_s must be >= 0")
        from .engine import compiled_for

        self.compiled = compiled_for(model.eval())
        self.failures = failures
        self.delay_s = delay_s
        self._lock = threading.Lock()

    def guarded(self):
        """A ``GuardedEngine`` whose compiled program is this double."""
        from .robust.guard import GuardedEngine

        return GuardedEngine(self, compiled=self)

    def predict_stream(self, chips, limit: int):
        time.sleep(self.delay_s)
        with self._lock:
            fail = self.failures > 0
            self.failures -= fail
        if fail:
            raise InjectedFault("injected engine fault")
        return self.compiled.predict_stream(chips, limit)

    def warmup(self, batch_sizes, sample_shape=None) -> float:
        return self.compiled.warmup(batch_sizes, sample_shape)


# ----------------------------------------------------------------------
# data-level corruption injectors
# ----------------------------------------------------------------------
NODATA = -9999.0  # GDAL-convention sentinel, matches SanitizePolicy's default


class Corruption:
    """Base class: deterministic, replayable image corruption.

    Each call draws from a fresh generator keyed by ``(seed, call
    index)``, so the k-th corruption an instance produces is identical on
    every run regardless of what happened between calls — the property
    the resumable-scan and severity-sweep tests depend on.  The input is
    never modified; every call returns a new float32 array.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, image: np.ndarray) -> np.ndarray:
        image = np.asarray(image)
        if image.ndim != 3:
            raise ValueError(f"expected a (C, H, W) image, got shape {image.shape}")
        with self._lock:
            index = self.calls
            self.calls += 1
        rng = np.random.default_rng((self.seed, index))
        return self._apply(image.astype(np.float32, copy=True), rng)

    def _apply(self, image: np.ndarray,
               rng: np.random.Generator) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError


class NaNPepper(Corruption):
    """Scatter NaN over a ``rate`` fraction of pixels (all bands drawn
    independently) — failed radiometric processing."""

    def __init__(self, rate: float = 0.05, seed: int = 0) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        super().__init__(seed)
        self.rate = rate

    def _apply(self, image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        image[rng.random(image.shape) < self.rate] = np.nan
        return image


class NodataHoles(Corruption):
    """Punch ``holes`` circular nodata holes through every band — the
    camera-footprint voids real mosaics carry, filled with the -9999
    sentinel rather than NaN so the two damage kinds stay distinguishable."""

    def __init__(self, holes: int = 3, radius: int = 6,
                 fill: float = NODATA, seed: int = 0) -> None:
        if holes < 1:
            raise ValueError("holes must be >= 1")
        if radius < 1:
            raise ValueError("radius must be >= 1")
        super().__init__(seed)
        self.holes = holes
        self.radius = radius
        self.fill = fill

    def _apply(self, image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        _, h, w = image.shape
        rows = np.arange(h)[:, None]
        cols = np.arange(w)[None, :]
        for _ in range(self.holes):
            cr = rng.integers(0, h)
            cc = rng.integers(0, w)
            mask = (rows - cr) ** 2 + (cols - cc) ** 2 <= self.radius**2
            image[:, mask] = self.fill
        return image


class DropBand(Corruption):
    """Blank one whole band (``band=None`` picks one per call) — a
    dropped spectral band arriving as all-NaN."""

    def __init__(self, band: int | None = None, fill: float = np.nan,
                 seed: int = 0) -> None:
        super().__init__(seed)
        self.band = band
        self.fill = fill

    def _apply(self, image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        band = self.band if self.band is not None \
            else int(rng.integers(0, len(image)))
        image[band] = self.fill
        return image


class SaturateStripe(Corruption):
    """Drive a ``width``-pixel stripe (random orientation and offset) to
    an out-of-range value across all bands — sensor saturation / glint."""

    def __init__(self, width: int = 8, value: float = 4.0,
                 seed: int = 0) -> None:
        if width < 1:
            raise ValueError("width must be >= 1")
        super().__init__(seed)
        self.width = width
        self.value = value

    def _apply(self, image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        _, h, w = image.shape
        horizontal = bool(rng.integers(0, 2))
        extent = h if horizontal else w
        start = int(rng.integers(0, max(extent - self.width, 0) + 1))
        if horizontal:
            image[:, start:start + self.width, :] = self.value
        else:
            image[:, :, start:start + self.width] = self.value
        return image


class TruncateTile(Corruption):
    """Cut trailing rows and columns (up to a ``max_loss`` fraction of
    each axis) — the short tile a truncated transfer leaves at a scene
    edge.  The returned array is genuinely smaller; use
    ``SanitizePolicy.expected_shape`` to repair by edge padding."""

    def __init__(self, max_loss: float = 0.25, seed: int = 0) -> None:
        if not 0.0 < max_loss < 1.0:
            raise ValueError("max_loss must be in (0, 1)")
        super().__init__(seed)
        self.max_loss = max_loss

    def _apply(self, image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        _, h, w = image.shape
        cut_h = int(rng.integers(1, max(int(h * self.max_loss), 1) + 1))
        cut_w = int(rng.integers(1, max(int(w * self.max_loss), 1) + 1))
        return image[:, : h - cut_h, : w - cut_w].copy()


def default_injectors(seed: int = 0) -> list[Corruption]:
    """One of each injector at default severity, independently seeded."""
    return [
        NaNPepper(seed=seed),
        NodataHoles(seed=seed + 1),
        DropBand(seed=seed + 2),
        SaturateStripe(seed=seed + 3),
        TruncateTile(seed=seed + 4),
    ]


# ----------------------------------------------------------------------
# process-level worker faults (fleet chaos suite)
# ----------------------------------------------------------------------

_FAULT_KINDS = frozenset({"hang", "kill", "slow", "error"})


@dataclass(frozen=True)
class WorkerFaultPlan:
    """Scripted worker-process faults keyed by model-call ordinal.

    ``faults`` maps a *global* engine-call ordinal (0-based, counted
    across every worker process that shares ``fuse_dir``; one per
    micro-batch of a batched or a robust shard, and one per tile a
    failed robust micro-batch re-runs) to a fault kind:

    - ``"hang"``  : sleep ``hang_s`` (the wedged-but-alive worker; the
      pool's deadline kill is the only way out),
    - ``"kill"``  : ``SIGKILL`` the calling process mid-shard,
    - ``"slow"``  : sleep ``slow_s`` then answer normally,
    - ``"error"`` : raise :class:`InjectedFault`.

    The ordinal is claimed through an atomic ``O_CREAT | O_EXCL`` file
    per call under ``fuse_dir`` — exactly one process across the fleet
    owns any ordinal, and each fault fires **exactly once** per plan no
    matter how often the shard is redispatched, because the claim file
    outlives the worker the fault killed.  That single-shot property is
    what lets a chaos run assert completion: every injected fault costs
    one recovery, then the retry runs clean.
    """

    faults: dict[int, str]
    fuse_dir: str
    hang_s: float = 3600.0
    slow_s: float = 1.0

    def __post_init__(self) -> None:
        unknown = set(self.faults.values()) - _FAULT_KINDS
        if unknown:
            raise ValueError(
                f"unknown fault kinds {sorted(unknown)}; "
                f"allowed: {sorted(_FAULT_KINDS)}"
            )
        Path(self.fuse_dir).mkdir(parents=True, exist_ok=True)

    def counts(self) -> dict[str, int]:
        out = {kind: 0 for kind in sorted(_FAULT_KINDS)}
        for kind in self.faults.values():
            out[kind] += 1
        return out

    def fired(self) -> int:
        """Fault ordinals whose fuse has been claimed by some process."""
        claimed = {int(p.name.split("-")[1])
                   for p in Path(self.fuse_dir).glob("call-*")}
        return sum(1 for ordinal in self.faults if ordinal in claimed)


@dataclass(eq=False)  # identity hash: the pool's model-bytes cache is
#                       keyed by instance, like any other model
class FaultyDetector:
    """Picklable detector wrapper that injects :class:`WorkerFaultPlan`
    faults into its engine calls **in worker processes only**.

    Travels to pool workers inside the normal model pickle.
    ``repro.engine.compiled_for`` runs the wrapped model's program
    behind this wrapper's fault point (:meth:`engine_program`), which
    claims one ordinal per micro-batch of ``predict_windows`` and one
    per ``predict`` call (a robust micro-batch, or one tile of a failed
    one re-run alone).  A non-faulting call delegates verbatim, so a
    scan through a ``FaultyDetector`` that recovers from every fault
    must produce byte-identical detections to the bare model — the
    fleet chaos gate's core assertion.  An ``"error"`` fails a batched
    shard, makes a robust micro-batch re-run tile by tile on the engine,
    or, on a robust tile re-run alone, fails the shard: an
    :class:`InjectedFault` is transient, so it is retried, not
    quarantined.

    The parent pid is captured at construction: calls in that process
    never fault (and never consume ordinals), so the pool's
    inline poison-shard fallback and any parent-side reference scan run
    clean by construction.
    """

    model: object
    plan: WorkerFaultPlan
    parent_pid: int = field(default_factory=os.getpid)
    _next_ordinal: int = field(default=0, compare=False)

    def _claim_ordinal(self) -> int:
        """Atomically claim the next unclaimed global call ordinal."""
        n = self._next_ordinal
        while True:
            path = Path(self.plan.fuse_dir) / f"call-{n:06d}"
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                n += 1
                continue
            with os.fdopen(fd, "w") as fh:
                fh.write(str(os.getpid()))
            self._next_ordinal = n + 1
            return n

    def _maybe_fault(self) -> None:
        if os.getpid() == self.parent_pid:
            return
        ordinal = self._claim_ordinal()
        kind = self.plan.faults.get(ordinal)
        if kind is None:
            return
        if kind == "hang":
            time.sleep(self.plan.hang_s)
        elif kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif kind == "slow":
            time.sleep(self.plan.slow_s)
        elif kind == "error":
            raise InjectedFault(
                f"injected worker fault at call ordinal {ordinal}"
            )

    def engine_program(self) -> "_FaultyProgram":
        """What ``repro.engine.compiled_for`` runs for this wrapper."""
        from .engine import compiled_for

        return _FaultyProgram(compiled_for(self.model), self)

    def __call__(self, *args, **kwargs):
        return self.model(*args, **kwargs)

    def eval(self):
        self.model.eval()
        return self

    def train(self):
        self.model.train()
        return self

    def __getattr__(self, name: str):
        # dataclass attributes resolve normally; everything else (arch
        # config, parameters, ...) delegates to the wrapped model.  The
        # guards keep pickle/copy protocol probes from recursing while
        # ``model`` is not set yet during unpickling.
        if name.startswith("__") or "model" not in self.__dict__:
            raise AttributeError(name)
        return getattr(self.model, name)


class _FaultyProgram:
    """A compiled program with a :class:`FaultyDetector`'s fault point
    on the calls a scan makes; the rest is the program's own."""

    def __init__(self, compiled, detector: FaultyDetector) -> None:
        self.compiled = compiled
        self.detector = detector

    def predict_windows(self, *args, **kwargs):
        for batch in self.compiled.predict_windows(*args, **kwargs):
            self.detector._maybe_fault()
            yield batch

    def predict(self, images, batch_size: int = 20):
        self.detector._maybe_fault()
        return self.compiled.predict(images, batch_size=batch_size)

    def __getattr__(self, name: str):
        return getattr(self.compiled, name)


def tear_trailing_line(path: str | Path, keep_fraction: float = 0.5) -> int:
    """Truncate a file mid-way through its final line (crash artifact).

    Reproduces what a ``SIGKILL`` during an unflushed append leaves
    behind: the last line's bytes cut at an arbitrary point, no
    terminating newline.  Returns the number of bytes removed.  Used by
    the torn-journal chaos tests against
    :func:`repro.durable.load_jsonl_repaired`.
    """
    if not 0.0 <= keep_fraction < 1.0:
        raise ValueError("keep_fraction must be in [0, 1)")
    path = Path(path)
    raw = path.read_bytes()
    body = raw.rstrip(b"\n")
    if not body:
        return 0
    last_start = body.rfind(b"\n") + 1
    last_line = body[last_start:]
    keep = max(1, int(len(last_line) * keep_fraction))
    torn = body[:last_start] + last_line[:keep]
    with open(path, "r+b") as fh:
        fh.truncate(len(torn))
        fh.flush()
        os.fsync(fh.fileno())
    return len(raw) - len(torn)


def corrupt_scene(
    image: np.ndarray,
    origins: Sequence[tuple[int, int]],
    window: int,
    fraction: float = 0.2,
    injectors: Sequence[Corruption] | None = None,
    seed: int = 0,
) -> tuple[np.ndarray, dict[int, str]]:
    """Corrupt a seeded ``fraction`` of a scene's tiles in place-of-copy.

    Picks ``round(fraction * len(origins))`` tile indices with a seeded
    generator and applies one (round-robin) injector to each tile's
    region of a copied scene image.  An injector that shrinks its tile
    (:class:`TruncateTile`) has the lost strip filled with the nodata
    sentinel, which is how a mosaicker represents a short tile inside a
    fixed-size raster.

    Returns ``(corrupted image copy, {tile index: injector name})``.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    image = np.asarray(image).astype(np.float32, copy=True)
    if injectors is None:
        injectors = default_injectors(seed)
    rng = np.random.default_rng(seed)
    count = int(round(fraction * len(origins)))
    chosen = sorted(rng.choice(len(origins), size=count, replace=False))
    applied: dict[int, str] = {}
    for slot, index in enumerate(chosen):
        injector = injectors[slot % len(injectors)]
        r, c = origins[index]
        tile = image[:, r:r + window, c:c + window]
        out = injector(tile)
        if out.shape != tile.shape:
            padded = np.full_like(tile, NODATA)
            padded[:, : out.shape[1], : out.shape[2]] = out
            out = padded
        image[:, r:r + window, c:c + window] = out
        applied[int(index)] = type(injector).__name__
    return image, applied
