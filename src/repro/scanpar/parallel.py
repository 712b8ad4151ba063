"""Process-parallel shard dispatch with a determinism contract.

:func:`repro.detect.scan_scene` plans a scan as batch-aligned shards;
:func:`run_shards` is how two or more of them run:

* the scene raster is placed in shared memory once
  (:class:`~repro.scanpar.shm.SharedArray`) — workers read it zero-copy
  through strided window views, no per-worker raster pickling;
* shard boundaries snap to micro-batch multiples
  (:func:`~repro.scanpar.sharding.partition_origins`), so every
  worker's batches are exactly the inline scan's batches — and every
  worker is told the *whole* scan's origins with its span of them, so
  a worker shares feature maps on the scan's own chunk grid
  (docs/engine.md, "Windows of one raster"): a chunk it needs is the
  same program over the same pixels as in the inline scan, and a shard
  only recomputes the chunks its first window row straddles;
* execution runs on a persistent warm worker pool
  (:class:`~repro.scanpar.pool.WorkerPool`): workers stay alive across
  scans, cache the deserialized model (and its warmed compiled-engine
  programs) by content hash, and write their raw results into
  parent-allocated shared-memory slabs instead of pickling ndarrays
  back through the pipe;
* every worker runs :func:`repro.detect.scan.scan_span`, the tile
  pipeline the inline scan runs, and the payloads come back in shard
  order — which is origin order — so ``scan_scene``'s one merge yields
  detections *and* coverage byte-identical to ``n_workers=1``.

``n_workers="auto"`` makes the parallelism adaptive
(:func:`resolve_n_workers`): the worker count derives from the visible
CPU affinity over the BLAS thread count each worker runs at, the scan's
micro-batch count, and a static spawn-cost threshold — on a box whose
cores the BLAS threads already fill (or a scene too small to amortize a
cold spawn) the scan runs inline.  An explicit count can still lose
to the inline scan (ROADMAP item 6).

Robust shards (``sanitize=``/``journal=``) journal per-shard JSONL files
that ``scan_scene`` absorbs into the single main journal
(:meth:`~repro.robust.ScanJournal.absorb_shards`), so a scan killed
mid-flight — parent or worker — resumes under any worker count without
re-running finished tiles.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
from contextlib import ExitStack
from itertools import zip_longest

import numpy as np

from ..blas import blas_info
from .pool import ShardPayloads, WorkerPool, get_pool, warm_pool
from .shm import SharedArray
from .worker import ShardTask

__all__ = ["run_shards", "default_start_method", "resolve_n_workers",
           "cpu_affinity_count", "spawn_cost_ms"]


def default_start_method() -> str:
    """The safe multiprocessing start method for this process *right
    now*.

    ``fork`` is preferred when available (workers inherit the loaded
    modules — no re-import cost), but forking a process that already
    runs threads is a known deadlock source: the child inherits locks
    frozen in whatever state the other threads held at fork time.  A
    scan issued while a ``serve.InferenceService`` runs (its model
    thread) is exactly that situation, so once
    ``threading.active_count() > 1`` this prefers ``spawn`` — the
    persistent :class:`~repro.scanpar.pool.WorkerPool` makes spawn's
    interpreter-boot cost a one-time hit rather than a per-scan tax.
    """
    methods = mp.get_all_start_methods()
    if "fork" in methods and threading.active_count() == 1:
        return "fork"
    return "spawn"


# ---------------------------------------------------------------------------
# adaptive worker policy (n_workers="auto")
# ---------------------------------------------------------------------------

#: micro-batches one worker must receive for sharding to be worth its
#: scheduling overhead — below this the shards are too small to amortize
#: even a warm dispatch
MIN_BATCHES_PER_WORKER = 2

#: conservative sequential scan throughput floor (tiles per millisecond)
#: used to convert a spawn cost into a break-even tile count for *cold*
#: pools; deliberately low so the policy only inlines clear losses
COLD_SPAWN_TILES_PER_MS = 0.5

#: conservative spawn cost per worker, by start method
_SPAWN_MS = {"fork": 60.0, "forkserver": 300.0, "spawn": 800.0}


def spawn_cost_ms(start_method: str | None = None) -> float:
    """Per-worker spawn cost the cold-pool break-even assumes: a static
    prior per start method, never a measurement, so the ``"auto"``
    verdict is a pure function of its inputs."""
    return _SPAWN_MS.get(start_method or default_start_method(), 800.0)


def cpu_affinity_count() -> int:
    """CPUs this process may actually run on (affinity-aware: a 64-core
    box with a 1-CPU cgroup counts as 1)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def resolve_n_workers(
    n_workers: int | str,
    *,
    n_origins: int,
    batch_size: int,
    start_method: str | None = None,
    pool_warm: bool | None = None,
    cpus: int | None = None,
) -> int:
    """Worker count for one scan; ``"auto"`` derives it, ints pass
    through validated.

    The auto policy, in order:

    1. the budget is ``min(visible CPUs // BLAS threads, micro-batches
       // 2)`` — every worker runs at the parent's BLAS thread count (so
       its bits are the inline scan's), so never more worker threads
       than cores (oversubscription only adds context switching), and
       at least :data:`MIN_BATCHES_PER_WORKER` batches each (thinner
       shards cannot amortize dispatch);
    2. a budget below 2 inlines to the sequential scan — this is what
       stops one-core CI boxes from regressing by construction;
    3. with no warm pool to reuse (``pool_warm=False``), the scene must
       be large enough to pay for spawning: at least
       ``spawn_cost_ms * budget * COLD_SPAWN_TILES_PER_MS`` tiles, with
       the start method's static prior as the spawn cost
       (:func:`spawn_cost_ms`).

    ``cpus`` and ``pool_warm`` are injectable for tests; they default to
    the live affinity count and the shared pool's existence.  The BLAS
    thread count is the process's own (:func:`repro.blas.blas_info`;
    one when it cannot be read).
    """
    if n_workers != "auto":
        n = int(n_workers)
        if n < 1:
            raise ValueError("n_workers must be >= 1 (or 'auto')")
        return n
    if cpus is None:
        cpus = cpu_affinity_count()
    n_batches = -(-n_origins // batch_size) if n_origins else 0  # ceil
    budget = min(cpus // (blas_info()["threads"] or 1),
                 n_batches // MIN_BATCHES_PER_WORKER)
    if budget < 2:
        return 1
    if pool_warm is None:
        pool_warm = warm_pool(start_method) is not None
    if not pool_warm:
        break_even = (spawn_cost_ms(start_method) * budget
                      * COLD_SPAWN_TILES_PER_MS)
        if n_origins < break_even:
            return 1
    return budget


def run_shards(
    model,
    image: np.ndarray,
    shards: list,
    spec,
    *,
    policy=None,
    skip: frozenset = frozenset(),
    journal=None,
    pool: WorkerPool | None = None,
    deadline_at: float | None = None,
) -> ShardPayloads:
    """Run a scan's ``shards`` on pool workers; returns the span
    payloads in shard order, carrying the dispatch's
    :class:`~repro.scanpar.pool.SupervisionReport` as ``.supervision``.

    ``spec`` (a :class:`~repro.detect.ScanSpec`), ``policy`` and ``skip``
    are everything a worker needs to call
    :func:`repro.detect.scan.scan_span` on its span.  ``pool`` defaults
    to the shared persistent pool.  A robust shard (``policy`` set)
    journals to ``journal.shard_path(index)``; a batched one returns
    through a float32 result slab (the engine's output dtype), copied
    back into its payload here so the caller's merge sees one payload
    form.

    Dispatch is :meth:`WorkerPool.run` under the pool's
    :class:`~repro.scanpar.pool.SupervisionPolicy`: per-shard deadlines,
    hung/dead worker kill-and-revive with redispatch, poison shards
    degraded to inline execution, and
    :class:`~repro.detect.scan.ScanDeadlineError` past ``deadline_at``.
    Recovery hands the same task to the next worker, so it is invisible
    to the merge.
    """
    robust = policy is not None
    if pool is None:
        pool = get_pool(len(shards))
    model_hash = pool.ensure_model(model)
    with SharedArray(image) as shared, ExitStack() as stack:
        # one result slab per batched shard, sized from its origin
        # count: column 0 confidences, columns 1:5 boxes.  Parent-owned,
        # so cleanup is guaranteed even when a worker dies mid-shard.
        slabs = [] if robust else [
            stack.enter_context(SharedArray.allocate((shard.size, 5),
                                                     np.float32))
            for shard in shards
        ]
        tasks = [
            ShardTask(
                shard_index=shard.index, start=shard.start, stop=shard.stop,
                shm=shared.spec(), model_hash=model_hash,
                scene_size=image.shape[-1], window=spec.window,
                stride=spec.stride, batch_size=spec.batch_size,
                confidence_threshold=spec.confidence_threshold,
                result=slab.spec() if slab is not None else None,
                policy=policy,
                journal_path=(str(journal.shard_path(shard.index))
                              if journal is not None else None),
                skip=skip,
            )
            for shard, slab in zip_longest(shards, slabs)
        ]
        payloads = pool.run(tasks, deadline_at=deadline_at)
        for slab, payload in zip(slabs, payloads):
            out = slab.array()
            payload["confidences"] = out[:, 0].copy()
            payload["boxes"] = out[:, 1:5].copy()
    return payloads
