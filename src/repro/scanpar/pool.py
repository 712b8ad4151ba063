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

Dispatch is one loop, :meth:`WorkerPool._dispatch`, the only code that
waits on worker pipes and process sentinels.  It never oversubscribes:
one shard is in flight per worker and the rest queue in the parent.  A
shard fails when it raises, when its worker dies, or when it misses its
per-shard deadline, and a failed shard goes to another worker until it
has failed ``max_attempts`` times; a shard whose error no retry can
change (:func:`repro.retry.retryable`) is given up on at once.  Past
the run deadline the loop salvages buffered replies, kills and replaces
the stragglers, and hands back what expired.  Its two forms differ only
in what they do with shards that are exhausted or expired (both raise
:class:`ShardError`, a permanent :class:`WorkerError`, for a permanent
one):

* :meth:`WorkerPool.run` — one attempt, no per-shard deadline: every
  lost shard is named in one :class:`WorkerError`;
* :class:`ShardSupervisor` — a :class:`SupervisionPolicy`: exhausted
  (poison) shards run inline in the parent, and an expired run raises
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
from weakref import WeakKeyDictionary

from ..blas import blas_info, set_blas_threads
from ..retry import Permanent, retryable
from .sharding import describe_shard
from .worker import run_shard

__all__ = ["WorkerPool", "WorkerError", "ShardError", "serialized_model",
           "get_pool", "warm_pool", "shutdown_pools",
           "DEFAULT_DISPATCH_TIMEOUT_S", "SupervisionPolicy",
           "SupervisionReport", "ShardSupervisor"]

_SPAWN_HANDSHAKE_TIMEOUT_S = 120.0

#: default run deadline of :meth:`WorkerPool.run`, so a wedged worker
#: cannot stall the parent forever; no legitimate shard approaches it.
#: ``run(timeout_s=None)`` waits without bound.
DEFAULT_DISPATCH_TIMEOUT_S = 300.0


class WorkerError(RuntimeError):
    """A shard failed inside a pool worker (shard context attached)."""


class ShardError(WorkerError, Permanent):
    """A shard raised an error no retry can change."""


@dataclass(frozen=True)
class SupervisionPolicy:
    """Knobs for one supervised dispatch.

    shard_deadline_s : seconds an in-flight shard may run before its
                       worker is presumed hung (killed + revived,
                       shard redispatched); ``None`` disables per-shard
                       deadlines (deaths are still recovered).
    max_attempts     : times a shard may fail before it is
                       quarantined as poison and runs inline.
    probe_interval_s : upper bound on how long the dispatch loop sleeps
                       between liveness checks — the wait also wakes on
                       replies and worker-death sentinels, so this only
                       bounds staleness, not latency.
    """

    shard_deadline_s: float | None = 120.0
    max_attempts: int = 3
    probe_interval_s: float = 1.0

    def __post_init__(self) -> None:
        if self.shard_deadline_s is not None and self.shard_deadline_s <= 0:
            raise ValueError("shard_deadline_s must be positive or None")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.probe_interval_s <= 0:
            raise ValueError("probe_interval_s must be positive")


#: :meth:`WorkerPool.run`'s policy: trust the workers
_TRUSTING = SupervisionPolicy(shard_deadline_s=None, max_attempts=1)


@dataclass
class SupervisionReport:
    """What supervision had to do to finish one dispatch.

    ``max_overshoot_s`` is the worst gap between a shard's deadline and
    the moment its hung worker was actually killed — the chaos gate
    bounds it, because it is exactly the "hung worker stalls dispatch"
    failure the supervisor exists to prevent.
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
            data = pickle.dumps(model)
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

    Thread-safe: dispatch and :meth:`ensure_model` serialize on an
    internal lock, so a service thread and a CLI scan can share one
    pool.  Workers are daemonic — an exiting interpreter never hangs on
    a forgotten pool — but call :meth:`close` (or use the pool as a
    context manager) for an orderly shutdown.
    """

    def __init__(self, n_workers: int, *,
                 start_method: str | None = None) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        from .parallel import default_start_method

        self.start_method = start_method or default_start_method()
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
        model cache is empty, so its sent-set resets and
        :meth:`ensure_model` re-sends — and ``compiled_for`` re-warms —
        on the next scan."""
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
        their sent-sets reset and :meth:`ensure_model` re-sends)."""
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

        Returns the model's content hash (the workers' cache key).
        Bytes travel over each worker's pipe at most once; repeat scans
        of the same model send nothing.  Nothing else about a compile
        travels: every process computes the same
        ``engine.conv_variant`` of the layer geometry and the same
        window plan of the scan geometry.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("pool is closed")
            self._revive_locked()
            return self._warm_locked(self._workers, model)

    def _warm_locked(self, workers, model) -> str:
        """Send ``model``'s bytes to each of ``workers`` not holding it."""
        data, model_hash = serialized_model(model)
        for worker in workers:
            if model_hash not in worker.sent:
                worker.conn.send(("model", model_hash, data))
                worker.sent.add(model_hash)
                self.stats["model_sends"] += 1
        return model_hash

    def run(self, tasks: list,
            timeout_s: float | None = DEFAULT_DISPATCH_TIMEOUT_S) -> list[dict]:
        """Run shard tasks on the pool, trusting the workers; results
        return in task order.

        The dispatch loop at one attempt and no per-shard deadline: a
        shard that raises, whose worker dies, or that is unanswered when
        ``timeout_s`` runs out (its wedged worker is killed and revived)
        is lost, and the run raises one :class:`WorkerError` naming every
        lost shard's index and origin range (a :class:`ShardError` when
        one of them raised a permanent error).  The other shards still
        finish and the pool stays usable; a dead worker's replacement
        receives the model at the next :meth:`ensure_model`.
        """
        deadline_at = (time.monotonic() + timeout_s
                       if timeout_s is not None else None)
        results, lost, expired, _ = self._dispatch(tasks, _TRUSTING,
                                                   deadline_at)
        failures = [f"{_task_context(task)} {why}" for task, why, _ in lost]
        failures += [f"{_task_context(task)} missed the {timeout_s:.1f}s "
                     f"dispatch deadline {where}" for task, where in expired]
        if failures:
            error = WorkerError if all(t for *_, t in lost) else ShardError
            raise error("; ".join(failures))
        return [results[task.shard_index] for task in tasks]

    def _dispatch(self, tasks: list, policy: SupervisionPolicy,
                  deadline_at: float | None, model=None):
        """The dispatch loop: one shard in flight per worker, the rest
        queued here, until every shard is answered, exhausted or expired.

        A shard fails when it raises, when its worker dies (seen through
        the process sentinel, after salvaging a buffered reply) or when
        it outlives ``policy.shard_deadline_s`` (its wedged worker is
        killed); it goes back in the queue until it has failed
        ``policy.max_attempts`` times or its worker reports a permanent
        error.  A dead or killed worker is replaced in its slot: with
        ``model`` the replacement is warmed and rejoins the run, without
        it the replacement waits for the next :meth:`ensure_model`.
        Past ``deadline_at`` the loop salvages buffered replies, kills
        and replaces the stragglers, and everything unanswered expires.

        Returns ``(payloads by shard index, exhausted, expired,
        report)``: ``exhausted`` holds ``(task, why, retryable)`` per
        given-up task, ``expired`` pairs a task with where it stood
        when the run deadline passed.
        """
        report = SupervisionReport(shards_total=len(tasks))
        results: dict[int, dict] = {}
        exhausted: list[tuple] = []
        expired: list[tuple] = []
        attempts = {task.shard_index: 0 for task in tasks}
        threads = blas_info()["threads"]      # each shard runs at ours
        with self._lock:
            if self._closed:
                raise RuntimeError("pool is closed")
            self._revive_locked()
            if model is not None:
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
                if model is not None:
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
                        worker, task, _ = kill(conn)
                        expired.append((task, f"in worker pid={worker.pid} "
                                              f"(worker killed and revived)"))
                    expired += [(task, "before a worker was free")
                                for task in queue]
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
                if not in_flight:     # every worker died, none came back warm
                    exhausted += [(task, "lost: every worker died", True)
                                  for task in queue]
                    break
                now = time.monotonic()
                waits = [policy.probe_interval_s]
                waits += [due - now for _, _, due in in_flight.values()
                          if due is not None]
                if deadline_at is not None:
                    waits.append(deadline_at - now)
                sentinels = {worker.proc.sentinel: conn
                             for conn, (worker, _, _) in in_flight.items()}
                for obj in mp_connection.wait([*in_flight, *sentinels],
                                              timeout=max(0.0, min(waits))):
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


class ShardSupervisor:
    """Supervised shard dispatch: the pool's dispatch loop under a
    :class:`SupervisionPolicy`.

    Holds the model object itself (not just its hash) for two reasons:
    replacement workers have empty caches and need the bytes re-sent,
    and poison shards run inline in the parent against this instance.
    """

    def __init__(self, pool: WorkerPool, model,
                 policy: SupervisionPolicy | None = None) -> None:
        self.pool = pool
        self.model = model
        self.policy = policy or SupervisionPolicy()

    def run(self, tasks: list, *,
            deadline_at: float | None = None,
            ) -> tuple[list[dict], SupervisionReport]:
        """Run shard tasks to completion under supervision.

        Returns ``(payloads in task order, report)``.  ``deadline_at``
        is an absolute ``time.monotonic()`` instant; past it the run
        aborts with :class:`~repro.detect.scan.ScanDeadlineError`.
        Worker failures never raise — they redispatch — except a shard
        whose *inline* fallback also fails, which raises
        :class:`WorkerError` (at that point the failure is the model's,
        not a worker's), and a shard whose worker reported a permanent
        error, which raises :class:`ShardError` with no inline run.
        """
        results, poisoned, expired, report = self.pool._dispatch(
            tasks, self.policy, deadline_at, self.model)
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
        # poison shards: inline sequential execution in the parent —
        # same task, same slab, same journal path, so the merge cannot
        # tell recovery happened
        for task, _, _ in poisoned:
            try:
                results[task.shard_index] = run_shard(
                    task, model_cache={task.model_hash: self.model})
            except Exception as exc:
                raise (WorkerError if retryable(exc) else ShardError)(
                    f"{_task_context(task)} failed on "
                    f"{report.attempts[task.shard_index]} workers and "
                    f"again inline: {type(exc).__name__}: {exc}") from exc
        return [results[task.shard_index] for task in tasks], report


# ---------------------------------------------------------------------------
# shared default pools (one per start method) — what makes the *second*
# scan_scene(n_workers=...) call warm
# ---------------------------------------------------------------------------

_POOLS: dict[str, WorkerPool] = {}
_POOLS_LOCK = threading.Lock()


def get_pool(n_workers: int, start_method: str | None = None) -> WorkerPool:
    """The shared persistent pool for ``start_method``, grown to at
    least ``n_workers``.  Created on first use; survives across scans
    until :func:`shutdown_pools` (registered ``atexit``)."""
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
