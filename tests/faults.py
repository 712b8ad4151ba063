"""Deterministic fault injection for the tests and the resilience
benchmarks.

Everything here is seeded or scripted and never wall-clock dependent,
so a test that injects a 20% failure rate injects *the same* failures
on every run:

* **Call-level wrappers** that make a callable misbehave on purpose:
  flaky (seeded random failures), fail-first (a transient outage) and
  fatal-on (poisoned inputs).
* :class:`FaultyEngine`, the one engine double: a picklable model
  wrapper whose compiled program, reached through
  ``repro.engine.compiled_for``'s ``engine_program()`` hook, runs behind
  an in-process fault countdown and a script of worker-process faults.
* :func:`window_batches`, the window stacks of the micro-batches a
  ``predict_windows`` call runs: what a script at that seam keys on.
* :func:`tear_trailing_line`, the torn-JSONL crash artifact the durable
  log's repair path recovers from.

The data-level corruption injectors stay in :mod:`repro.faults`.  The
benchmarks that use this module put the repository root on ``sys.path``
and import it as ``tests.faults``, so pool workers, spawned ones too,
unpickle a double by that name.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.retry import Permanent


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

    The canonical transient outage: a retry loop sees the failure
    window end deterministically.
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


#: what a faulting call of the countdown does
KINDS = ("raise", "nan", "shape")
#: the program methods the countdown can count (``predict_windows``
#: counts each micro-batch it yields, the robust scan's seam)
COUNTED = ("predict", "predict_stream", "predict_windows", "warmup")
#: what a scripted worker fault does
WORKER_KINDS = ("error", "hang", "kill", "slow")

_COUNTDOWN = threading.Lock()   # module-level, so a double pickles


@dataclass(eq=False)  # identity hash: the pool's model-bytes cache is
#                       keyed by instance, like any other model
class FaultyEngine:
    """A model whose compiled program runs behind a fault script.

    ``repro.engine.compiled_for`` takes this wrapper's program from
    :meth:`engine_program`: the wrapped model's own compiled program
    behind two scripts, so the service (``InferenceService(faulty)``),
    the guard (``GuardedEngine(faulty)``), a scan and the pool's
    workers all meet the faults through that one hook.  A call no
    script faults delegates verbatim, so its bytes are the bare
    model's.

    **The countdown** fires in the process that makes the call:

    * ``failures``: the next this-many counted calls fault, each
      counting it down by one.  Set it at any time to start or end an
      outage.
    * ``kind``: what a faulting call does.  ``"raise"`` raises ``exc``
      before the real call (the transient failure the service's retries
      exist for); ``"nan"`` answers NaN and ``"shape"`` one
      row short, after the real call has pulled its chips (the answers
      the guard refuses).  A faulting warm-up raises whatever the kind.
    * ``delay_s``: every counted call stalls this long first, keeping
      the service's model thread busy (backpressure, deadline,
      shutdown).
    * ``on``: the program methods the countdown counts, of
      :data:`COUNTED`.

    ``calls`` counts the counted calls made in this process.

    **The worker script** fires only in a process other than the one
    that built the wrapper (``parent_pid``), so an inline shard and a
    reference scan in the parent run clean.  ``worker_faults`` maps a
    *global* call ordinal (0-based, counted across every process that
    shares ``fuse_dir``; one per micro-batch ``predict_windows`` yields
    and one per ``predict`` call) to what that call does:

    - ``"hang"``: sleep ``hang_s`` (the wedged-but-alive worker; the
      pool's deadline kill is the only way out),
    - ``"kill"``: ``SIGKILL`` the calling process mid-shard,
    - ``"slow"``: sleep ``slow_s``, then answer normally,
    - ``"error"``: raise :class:`InjectedFault`, which is transient, so
      a shard retries it rather than quarantining a tile.

    A call claims its ordinal with an ``O_CREAT | O_EXCL`` file under
    ``fuse_dir``, so one process owns each ordinal and each fault fires
    exactly once however often its shard is redispatched: the claim
    outlives the worker the fault killed.  That is what lets a chaos
    run assert completion.
    """

    model: object
    failures: int = 0
    kind: str = "raise"
    delay_s: float = 0.0
    exc: type[Exception] = InjectedFault
    on: tuple[str, ...] = ("predict", "predict_stream")
    worker_faults: dict[int, str] = field(default_factory=dict)
    fuse_dir: str | None = None
    hang_s: float = 3600.0
    slow_s: float = 1.0
    parent_pid: int = field(default_factory=os.getpid)
    calls: int = field(default=0, init=False)
    _next_ordinal: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.failures < 0 or self.delay_s < 0:
            raise ValueError("failures and delay_s must be >= 0")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not set(self.on) <= set(COUNTED):
            raise ValueError(f"on must name methods of {COUNTED}")
        unknown = set(self.worker_faults.values()) - set(WORKER_KINDS)
        if unknown:
            raise ValueError(f"unknown fault kinds {sorted(unknown)}; "
                             f"allowed: {list(WORKER_KINDS)}")
        if self.worker_faults:
            if self.fuse_dir is None:
                raise ValueError("worker_faults need a fuse_dir")
            Path(self.fuse_dir).mkdir(parents=True, exist_ok=True)

    def engine_program(self) -> _Program:
        """What ``repro.engine.compiled_for`` runs for this wrapper."""
        from repro.engine import compiled_for

        return _Program(compiled_for(self.model), self)

    def fired(self) -> int:
        """Scripted worker faults whose ordinal some process claimed."""
        claimed = {int(p.name.split("-")[1])
                   for p in Path(self.fuse_dir).glob("call-*")}
        return len(claimed & set(self.worker_faults))

    def _counted(self, method: str, run):
        if method not in self.on:
            return run()
        time.sleep(self.delay_s)
        with _COUNTDOWN:
            self.calls += 1
            fail = self.failures > 0
            self.failures -= fail
        if fail and (self.kind == "raise" or method == "warmup"):
            raise self.exc("injected engine fault")
        answer = run()
        if not fail:
            return answer
        conf, boxes = answer
        if self.kind == "nan":
            return np.full_like(conf, np.nan), np.full_like(boxes, np.nan)
        return conf[:-1], boxes[:-1]

    def _worker_fault(self) -> None:
        if not self.worker_faults or os.getpid() == self.parent_pid:
            return
        ordinal = self._claim_ordinal()
        kind = self.worker_faults.get(ordinal)
        if kind == "hang":
            time.sleep(self.hang_s)
        elif kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif kind == "slow":
            time.sleep(self.slow_s)
        elif kind == "error":
            raise InjectedFault(
                f"injected worker fault at call ordinal {ordinal}")

    def _claim_ordinal(self) -> int:
        """Atomically claim the next unclaimed global call ordinal."""
        n = self._next_ordinal
        while True:
            path = Path(self.fuse_dir) / f"call-{n:06d}"
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                n += 1
                continue
            with os.fdopen(fd, "w") as fh:
                fh.write(str(os.getpid()))
            self._next_ordinal = n + 1
            return n

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


class _Program:
    """A compiled program with a :class:`FaultyEngine`'s scripts on the
    calls the service, the guard and a scan make; the rest is the
    program's own."""

    def __init__(self, compiled, double: FaultyEngine) -> None:
        self.compiled = compiled
        self.double = double

    def predict_windows(self, *args, **kwargs):
        for batch in self.compiled.predict_windows(*args, **kwargs):
            self.double._worker_fault()
            yield self.double._counted("predict_windows", lambda: batch)

    def predict(self, images, batch_size: int = 20):
        self.double._worker_fault()
        return self.double._counted("predict", lambda: self.compiled.predict(
            images, batch_size=batch_size))

    def predict_stream(self, chips, limit: int):
        return self.double._counted(
            "predict_stream",
            lambda: self.compiled.predict_stream(chips, limit))

    def warmup(self, batch_sizes, sample_shape=None) -> float:
        return self.double._counted(
            "warmup", lambda: self.compiled.warmup(batch_sizes, sample_shape))

    def __getattr__(self, name: str):
        return getattr(self.compiled, name)


def window_batches(image, origins, window: int, batch_size: int = 20,
                   span=None):
    """The ``(n, C, window, window)`` window stack of each micro-batch
    ``predict_windows(image, origins, window, batch_size, span)`` runs,
    in order: a fault script patched over that seam (the robust scan's
    micro-batches) keys on these, as one over ``predict_batch`` keys on
    its stack."""
    from repro.engine.compiled import _span_indices

    todo = list(_span_indices(span, len(origins)))
    for at in range(0, len(todo), batch_size):
        yield np.stack([image[:, r:r + window, c:c + window]
                        for r, c in (origins[i] for i in
                                     todo[at:at + batch_size])])


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
