"""Persistent warm worker pool for sharded scene scanning.

Process spawn, model unpickling and engine warmup cost more than a
shard scans, so, following IOS (Ding et al., 2020), this module
amortizes them across scans:

* :class:`WorkerPool` keeps worker processes alive across scans.  A
  worker is spawned once (cost measured and fed back into the adaptive
  worker policy), receives each model's pickled bytes once, and caches
  the deserialized model — and, through ``repro.engine.compiled_for``'s
  per-instance cache, its warmed compiled engine programs — keyed by a
  model content hash.  The second scan of the same model neither
  respawns, nor re-unpickles, nor recompiles anything.
* :func:`serialized_model` caches ``pickle.dumps(model)`` (and its
  SHA-1 content hash) per model instance on the parent side, so repeat
  scans of one model stop re-serializing the same weights.
* :func:`get_pool` hands out one shared pool per start method, reused
  by every ``scan_scene(n_workers=)`` call that is not handed a
  ``pool=`` of its own: plain scans and fleet sweeps alike.

Dispatch is one loop, :meth:`WorkerPool.run` over
:meth:`WorkerPool._dispatch`, the only code that waits on worker pipes
and process sentinels, under the pool's :class:`SupervisionPolicy`.  It
never oversubscribes: one shard is in flight per worker and the rest
queue in the parent.  A shard fails when it raises, when its worker
dies, or when it misses its per-shard deadline; a failed shard goes to
another worker (a dead or killed one is replaced and re-warmed) until
it has failed ``max_attempts`` times, then runs inline in the parent.
A shard whose error no retry can change (:func:`repro.retry.retryable`)
is given up on at once and raises :class:`ShardError`.  Past the run
deadline the loop salvages buffered replies, kills and replaces the
stragglers, and the run raises
:class:`~repro.detect.scan.ScanDeadlineError`.

Like ``repro.engine.compiled_for``, the per-worker model cache
snapshots weights at first send: training a model afterwards requires a
new model object (a new content hash) for workers to see the update.
"""

from __future__ import annotations

import atexit
import hashlib
import multiprocessing as mp
import os
import pickle
import threading
import time
import traceback
from collections import deque
from contextlib import suppress
from dataclasses import asdict, dataclass, field
from multiprocessing import connection as mp_connection
from weakref import WeakKeyDictionary, WeakValueDictionary

from ..blas import blas_info, set_blas_threads
from ..retry import Permanent, retryable
from .sharding import describe_shard
from .worker import run_shard

__all__ = ["WorkerPool", "WorkerError", "ShardError", "serialized_model",
           "get_pool", "warm_pool", "shutdown_pools", "SupervisionPolicy",
           "SupervisionReport", "ShardPayloads"]

_SPAWN_HANDSHAKE_TIMEOUT_S = 120.0


class WorkerError(RuntimeError):
    """A shard failed inside a pool worker (shard context attached)."""


class ShardError(WorkerError, Permanent):
    """A shard raised an error no retry can change."""


@dataclass(frozen=True)
class SupervisionPolicy:
    """How a :class:`WorkerPool` dispatches shards.

    shard_deadline_s : seconds an in-flight shard may run before its
                       worker is presumed hung (killed + replaced,
                       shard redispatched); ``None`` disables per-shard
                       deadlines (deaths are still recovered).
    max_attempts     : times a shard may fail on workers before it is
                       quarantined as poison and runs inline.
    """

    shard_deadline_s: float | None = 120.0
    max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.shard_deadline_s is not None and self.shard_deadline_s <= 0:
            raise ValueError("shard_deadline_s must be positive or None")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")


@dataclass
class SupervisionReport:
    """What supervision had to do to finish one dispatch.

    ``max_overshoot_s`` is the worst gap between a shard's deadline and
    the moment its hung worker was actually killed — the chaos gate
    bounds it, because it is exactly the "hung worker stalls dispatch"
    failure supervision exists to prevent.
    """

    shards_total: int = 0
    deadline_kills: int = 0          # workers killed for missing a deadline
    worker_deaths: int = 0           # workers that died mid-shard
    workers_replaced: int = 0        # fresh processes spawned into slots
    redispatches: int = 0            # shard retries on another worker
    salvaged_replies: int = 0        # answers drained after death/deadline
    poison_shards: list[int] = field(default_factory=list)
    attempts: dict[int, int] = field(default_factory=dict)
    max_overshoot_s: float = 0.0

    @property
    def clean(self) -> bool:
        """True when no fault handling fired at all."""
        return (self.deadline_kills == 0 and self.worker_deaths == 0
                and self.redispatches == 0 and not self.poison_shards)

    def to_json(self) -> dict:
        out = asdict(self)
        out["attempts"] = {str(k): v for k, v in sorted(self.attempts.items())}
        return out


class ShardPayloads(list):
    """:meth:`WorkerPool.run`'s return: the shard payloads in task order
    (a plain list to every list-consuming caller) that also carries the
    dispatch's :class:`SupervisionReport` as ``.supervision``."""

    def __init__(self, payloads, supervision: SupervisionReport) -> None:
        super().__init__(payloads)
        self.supervision = supervision


# ---------------------------------------------------------------------------
# parent-side model serialization cache (satellite: stop re-pickling the
# same model on every pooled scan)
# ---------------------------------------------------------------------------

_MODEL_BYTES: "WeakKeyDictionary[object, tuple[bytes, str]]" = \
    WeakKeyDictionary()
_MODEL_BYTES_LOCK = threading.Lock()


def serialized_model(model) -> tuple[bytes, str]:
    """``(pickle.dumps(model), sha1 hex digest)``, cached per instance.

    The content hash keys the workers' model caches, so two model
    objects with identical pickled bytes share one worker-side entry.
    The bytes are a weight snapshot — mutating the model in place does
    not refresh them (same contract as ``compiled_for``).
    """
    with _MODEL_BYTES_LOCK:
        entry = _MODEL_BYTES.get(model)
        if entry is None:
            # protocol 4 unpickles each large array onto a ``bytes`` of
            # its own size, which the engine shares as the array's only
            # owner (``engine.kernels.pack_linear_weight``); protocol 5,
            # the default from Python 3.14, stacks it on other arrays,
            # and every worker would pack a second copy of the FC
            data = pickle.dumps(model, protocol=4)
            entry = (data, hashlib.sha1(data).hexdigest())
            _MODEL_BYTES[model] = entry
        return entry


# ---------------------------------------------------------------------------
# worker process main loop
# ---------------------------------------------------------------------------

def _pool_worker_main(conn) -> None:
    """Long-lived worker: answer pings, cache models, run shards.

    The model cache maps content hash -> deserialized model; keeping the
    same model *object* alive across scans is what keeps
    ``compiled_for``'s per-instance program cache (and therefore the
    warmed engine) hot between scans.  A shard runs at the BLAS thread
    count the parent sent with it, so its bits are the inline scan's.
    """
    models: dict[str, object] = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "stop":
            break
        if kind == "ping":
            conn.send(("pong", os.getpid()))
        elif kind == "model":
            _, model_hash, data = message
            if model_hash not in models:
                models[model_hash] = pickle.loads(data)
        elif kind == "shard":
            _, task, threads = message
            try:
                if threads is not None:
                    set_blas_threads(threads)
                payload = run_shard(task, model_cache=models)
            except BaseException as exc:
                conn.send(("error", task.shard_index,
                           f"{type(exc).__name__}: {exc}",
                           traceback.format_exc(), retryable(exc)))
            else:
                conn.send(("ok", task.shard_index, payload))
    conn.close()


class _Worker:
    """One pool slot: process, duplex pipe, and the model hashes sent."""

    __slots__ = ("proc", "conn", "sent")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        self.sent: set[str] = set()

    @property
    def pid(self) -> int:
        return self.proc.pid


# ---------------------------------------------------------------------------
# the pool
# ---------------------------------------------------------------------------

class WorkerPool:
    """Persistent warm worker processes for parallel scene scans.

    Parameters
    ----------
    n_workers    : worker processes to keep alive (the worker budget —
                   dispatch keeps one shard in flight per worker and
                   never spawns more processes than this)
    start_method : multiprocessing start method; defaults to
                   :func:`~repro.scanpar.default_start_method` (which
                   prefers ``spawn`` once the caller runs threads)
    supervision  : the :class:`SupervisionPolicy` every :meth:`run`
                   dispatches under (per-shard deadline, attempts
                   before a shard runs inline)

    Thread-safe: dispatch and :meth:`ensure_model` serialize on an
    internal lock, so a service thread and a CLI scan can share one
    pool.  Workers are daemonic — an exiting interpreter never hangs on
    a forgotten pool — but call :meth:`close` (or use the pool as a
    context manager) for an orderly shutdown.
    """

    def __init__(self, n_workers: int, *, start_method: str | None = None,
                 supervision: SupervisionPolicy = SupervisionPolicy()) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if not isinstance(supervision, SupervisionPolicy):
            raise TypeError(f"supervision must be a SupervisionPolicy, "
                            f"got {supervision!r}")
        from .parallel import default_start_method

        self.start_method = start_method or default_start_method()
        self.supervision = supervision
        # the models ensure_model delivered, by content hash: a run
        # re-warms a replacement worker and runs a poison shard inline
        # with them, and never keeps one alive
        self._models: WeakValueDictionary[str, object] = WeakValueDictionary()
        self._ctx = mp.get_context(self.start_method)
        self._lock = threading.RLock()
        self._closed = False
        self._workers: list[_Worker] = []
        self.spawn_ms = 0.0          # cumulative wall time spent spawning
        self.stats = {"workers_spawned": 0, "workers_revived": 0,
                      "workers_killed": 0, "model_sends": 0, "tasks": 0,
                      "runs": 0}
        with self._lock:
            self._spawn_locked(n_workers)

    # -- lifecycle ---------------------------------------------------------

    def _spawn_locked(self, n: int) -> None:
        start = time.perf_counter()
        # The shm lifecycle contract (see repro.scanpar.shm) assumes
        # workers share the PARENT's resource_tracker process, so their
        # attach-registrations deduplicate against the parent's own.
        # Pool workers spawn before the parent allocates any shared
        # memory, so start the tracker explicitly — otherwise each
        # worker lazily starts a private tracker and every slab gets
        # double-registered (leak warnings at worker exit).
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        fresh: list[_Worker] = []
        for _ in range(n):
            parent_conn, child_conn = self._ctx.Pipe()
            proc = self._ctx.Process(
                target=_pool_worker_main, args=(child_conn,),
                name=f"scanpar-worker-{self.stats['workers_spawned'] + len(fresh)}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            fresh.append(_Worker(proc, parent_conn))
        # handshake: a worker is warm once it answers the ping (spawn +
        # interpreter boot + repro import all paid here, once)
        for worker in fresh:
            worker.conn.send(("ping",))
        for worker in fresh:
            if not worker.conn.poll(_SPAWN_HANDSHAKE_TIMEOUT_S):
                raise WorkerError(
                    f"pool worker pid={worker.proc.pid} failed to come up "
                    f"within {_SPAWN_HANDSHAKE_TIMEOUT_S:.0f}s"
                )
            worker.conn.recv()
        self.spawn_ms += (time.perf_counter() - start) * 1e3
        self.stats["workers_spawned"] += n
        self._workers.extend(fresh)

    def _replace_locked(self, worker: _Worker) -> _Worker:
        """Swap ``worker`` for a freshly spawned one in the same slot
        (killing it first if it is still alive).  The replacement's
        model cache is empty, so its sent-set resets and the caller
        re-sends (and its ``compiled_for`` re-warms) what it needs."""
        i = self._workers.index(worker)
        if worker.proc.is_alive():
            worker.proc.kill()
            worker.proc.join(timeout=5.0)
        worker.conn.close()
        del self._workers[i]
        self._spawn_locked(1)
        self._workers.insert(i, self._workers.pop())
        return self._workers[i]

    def _revive_locked(self) -> None:
        """Replace workers that died (their model caches are gone, so
        their sent-sets reset and the next :meth:`ensure_model` or
        :meth:`run` re-sends)."""
        for worker in list(self._workers):
            if not worker.proc.is_alive():
                self._replace_locked(worker)
                self.stats["workers_revived"] += 1

    @property
    def n_workers(self) -> int:
        return len(self._workers)

    @property
    def closed(self) -> bool:
        return self._closed

    def worker_pids(self) -> list[int]:
        with self._lock:
            return [w.proc.pid for w in self._workers]

    def grow(self, n_workers: int) -> None:
        """Ensure the pool holds at least ``n_workers`` live workers."""
        with self._lock:
            if self._closed:
                raise RuntimeError("pool is closed")
            if n_workers > len(self._workers):
                self._spawn_locked(n_workers - len(self._workers))

    def close(self, join_timeout_s: float = 5.0) -> None:
        """Stop every worker (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for worker in self._workers:
                with suppress(OSError):
                    worker.conn.send(("stop",))
            for worker in self._workers:
                worker.proc.join(timeout=join_timeout_s)
                if worker.proc.is_alive():
                    worker.proc.terminate()
                    worker.proc.join(timeout=join_timeout_s)
                worker.conn.close()
            self._workers.clear()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- work --------------------------------------------------------------

    def ensure_model(self, model) -> str:
        """Deliver ``model`` to every worker that does not hold it yet.

        Returns the model's content hash (the workers' cache key, which
        a :class:`~repro.scanpar.ShardTask` names as ``model_hash``).
        Bytes travel over each worker's pipe at most once; repeat scans
        of the same model send nothing.  The pool keeps the model weakly
        under that hash: :meth:`run` re-warms a replacement worker and
        runs a poison shard inline with it.  Nothing else about a
        compile travels: every process computes the same
        ``engine.conv_variant`` of the layer geometry and the same
        window plan of the scan geometry.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("pool is closed")
            self._revive_locked()
            model_hash = self._warm_locked(self._workers, model)
            self._models[model_hash] = model
            return model_hash

    def _warm_locked(self, workers, model) -> str:
        """Send ``model``'s bytes to each of ``workers`` not holding it."""
        data, model_hash = serialized_model(model)
        for worker in workers:
            if model_hash not in worker.sent:
                worker.conn.send(("model", model_hash, data))
                worker.sent.add(model_hash)
                self.stats["model_sends"] += 1
        return model_hash

    def run(self, tasks: list, *,
            deadline_at: float | None = None) -> ShardPayloads:
        """Run shard tasks to completion under the pool's
        :class:`SupervisionPolicy`; the payloads return in task order,
        carrying the dispatch's :class:`SupervisionReport` as
        ``.supervision``.

        Each task's model must have come through :meth:`ensure_model`.
        A worker failure does not raise: the shard goes to another
        worker, and once it has failed ``max_attempts`` times it runs
        inline in this process, against the model :meth:`ensure_model`
        delivered (same task, same slab, same journal path, so the merge
        cannot tell recovery happened).  A shard raises
        :class:`WorkerError` when its inline run fails too, and
        :class:`ShardError` after one worker run, with no inline run,
        when its worker reported a permanent error.  ``deadline_at`` is
        an absolute ``time.monotonic()`` instant; past it the run raises
        :class:`~repro.detect.scan.ScanDeadlineError`, and the pool stays
        usable.
        """
        results, poisoned, expired, report = self._dispatch(tasks, deadline_at)
        permanent = [f"{_task_context(task)} {why}"
                     for task, why, transient in poisoned if not transient]
        if permanent:
            raise ShardError("; ".join(permanent))
        if expired:
            from ..detect.scan import ScanDeadlineError

            missing = sorted({t.shard_index for t in tasks} - set(results))
            raise ScanDeadlineError(
                f"scan deadline expired with {len(missing)} of "
                f"{len(tasks)} shards unfinished (missing shards "
                f"{missing}); journaled tiles are resumable")
        for task, _, _ in poisoned:
            try:
                results[task.shard_index] = run_shard(task,
                                                      model_cache=self._models)
            except Exception as exc:
                raise (WorkerError if retryable(exc) else ShardError)(
                    f"{_task_context(task)} failed on "
                    f"{report.attempts[task.shard_index]} workers and "
                    f"again inline: {type(exc).__name__}: {exc}") from exc
        return ShardPayloads([results[task.shard_index] for task in tasks],
                             report)

    def _dispatch(self, tasks: list, deadline_at: float | None):
        """The dispatch loop: one shard in flight per worker, the rest
        queued here, until every shard is answered or exhausted, or the
        run deadline passes.

        A shard fails when it raises, when its worker dies (seen through
        the process sentinel, after salvaging a buffered reply) or when
        it outlives the policy's ``shard_deadline_s`` (its wedged worker
        is killed); it goes back in the queue until it has failed
        ``max_attempts`` times or its worker reports a permanent error.
        A dead or killed worker is replaced in its slot, warmed with the
        run's models and rejoins the run.  The wait wakes on a reply, a
        worker-death sentinel, the earliest shard deadline and the run
        deadline, and blocks when none of them is pending.  Past
        ``deadline_at`` the loop salvages buffered replies, kills and
        replaces the stragglers, and stops.

        Returns ``(payloads by shard index, exhausted, expired,
        report)``: ``exhausted`` holds ``(task, why, retryable)`` per
        given-up task, ``expired`` says whether the run deadline passed
        with shards unanswered.
        """
        policy = self.supervision
        report = SupervisionReport(shards_total=len(tasks))
        results: dict[int, dict] = {}
        exhausted: list[tuple] = []
        expired = False
        attempts = {task.shard_index: 0 for task in tasks}
        threads = blas_info()["threads"]      # each shard runs at ours
        with self._lock:
            if self._closed:
                raise RuntimeError("pool is closed")
            # held for the run, so a replacement can be warmed with them
            models = {h: m for h in {task.model_hash for task in tasks}
                      if (m := self._models.get(h)) is not None}
            self._revive_locked()
            for model in models.values():
                self._warm_locked(self._workers, model)
            self.stats["runs"] += 1
            self.stats["tasks"] += len(tasks)
            queue = deque(tasks)
            idle = deque(self._workers)
            in_flight: dict = {}          # conn -> (worker, task, due)

            def replace(worker: _Worker, counter: str) -> None:
                self.stats[counter] += 1
                report.workers_replaced += 1
                fresh = self._replace_locked(worker)
                for model in models.values():
                    self._warm_locked([fresh], model)
                idle.append(fresh)

            def failed(task, why: str, transient: bool = True) -> None:
                if transient and attempts[task.shard_index] < policy.max_attempts:
                    report.redispatches += 1
                    queue.append(task)
                else:
                    report.poison_shards.append(task.shard_index)
                    exhausted.append((task, why, transient))

            def died(worker: _Worker, task) -> None:
                report.worker_deaths += 1
                replace(worker, "workers_revived")
                failed(task, f"lost: worker pid={worker.pid} died")

            def kill(conn) -> tuple:
                worker, task, due = in_flight.pop(conn)
                report.deadline_kills += 1
                replace(worker, "workers_killed")
                return worker, task, due

            def consume(conn, salvaged: bool = False) -> None:
                worker, task, _ = in_flight.pop(conn)
                try:
                    reply = conn.recv()
                except (EOFError, OSError):
                    died(worker, task)
                    return
                if salvaged:
                    report.salvaged_replies += 1
                # the worker answered, so it is sane whatever its shard did
                idle.append(worker)
                if reply[0] == "ok":
                    results[task.shard_index] = reply[2]
                else:
                    failed(task, f"failed in worker pid={worker.pid}: "
                                 f"{reply[2]}\n{reply[3]}", reply[4])

            while queue or in_flight:
                if deadline_at is not None and time.monotonic() >= deadline_at:
                    for conn in [c for c in in_flight if c.poll(0)]:
                        consume(conn, salvaged=True)
                    for conn in list(in_flight):
                        kill(conn)
                    expired = True
                    break
                while queue and idle:
                    worker, task = idle.popleft(), queue.popleft()
                    try:
                        worker.conn.send(("shard", task, threads))
                    except (BrokenPipeError, OSError):
                        queue.appendleft(task)
                        report.worker_deaths += 1
                        replace(worker, "workers_revived")
                        continue
                    attempts[task.shard_index] += 1
                    due = (time.monotonic() + policy.shard_deadline_s
                           if policy.shard_deadline_s is not None else None)
                    in_flight[worker.conn] = (worker, task, due)
                dues = [due for _, _, due in in_flight.values()
                        if due is not None]
                if deadline_at is not None:
                    dues.append(deadline_at)
                timeout = (max(0.0, min(dues) - time.monotonic())
                           if dues else None)
                sentinels = {worker.proc.sentinel: conn
                             for conn, (worker, _, _) in in_flight.items()}
                for obj in mp_connection.wait([*in_flight, *sentinels],
                                              timeout=timeout):
                    conn = sentinels.get(obj, obj)
                    if conn not in in_flight:
                        continue
                    if conn.poll(0):
                        consume(conn, salvaged=obj is not conn)
                    elif not in_flight[conn][0].proc.is_alive():
                        # died mid-shard with nothing buffered
                        worker, task, _ = in_flight.pop(conn)
                        died(worker, task)
                now = time.monotonic()
                for conn, (_, _, due) in list(in_flight.items()):
                    if due is None or now < due:
                        continue
                    if conn.poll(0):          # answered just in time
                        consume(conn, salvaged=True)
                        continue
                    worker, task, due = kill(conn)
                    report.max_overshoot_s = max(report.max_overshoot_s,
                                                 now - due)
                    failed(task, f"missed its shard deadline in worker "
                                 f"pid={worker.pid}")
            report.attempts = attempts
        return results, exhausted, expired, report


def _task_context(task) -> str:
    """Human-readable shard identity for error wrapping."""
    return describe_shard(task.shard_index, task.start, task.stop)


# ---------------------------------------------------------------------------
# shared default pools (one per start method) — what makes the *second*
# scan_scene(n_workers=...) call warm
# ---------------------------------------------------------------------------

_POOLS: dict[str, WorkerPool] = {}
_POOLS_LOCK = threading.Lock()


def get_pool(n_workers: int, start_method: str | None = None) -> WorkerPool:
    """The shared persistent pool for ``start_method``, grown to at
    least ``n_workers``, under the default :class:`SupervisionPolicy`.
    Created on first use; survives across scans until
    :func:`shutdown_pools` (registered ``atexit``).  A caller that needs
    another policy builds its own :class:`WorkerPool` and passes it to
    the scan as ``pool=``."""
    from .parallel import default_start_method

    method = start_method or default_start_method()
    with _POOLS_LOCK:
        pool = _POOLS.get(method)
        if pool is not None and pool.closed:
            pool = None
        if pool is None:
            pool = WorkerPool(n_workers, start_method=method)
            _POOLS[method] = pool
        else:
            pool.grow(n_workers)
        return pool


def warm_pool(start_method: str | None = None) -> WorkerPool | None:
    """The live shared pool for ``start_method`` if one exists (no
    spawning).  The adaptive worker policy asks this to decide whether
    spawn cost is already sunk."""
    from .parallel import default_start_method

    method = start_method or default_start_method()
    with _POOLS_LOCK:
        pool = _POOLS.get(method)
        return None if pool is None or pool.closed else pool


def shutdown_pools() -> None:
    """Close every shared pool (idempotent; registered ``atexit``)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.close()


atexit.register(shutdown_pools)
