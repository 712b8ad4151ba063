"""Process-parallel sharded scene scanning with a determinism contract.

:func:`parallel_scan_scene` is the multi-core counterpart of
:func:`repro.detect.scan_scene`:

* the scene raster is placed in shared memory once
  (:class:`~repro.scanpar.shm.SharedArray`) — workers read it zero-copy
  through strided window views, no per-worker raster pickling;
* scan origins are partitioned into contiguous row-band shards whose
  boundaries snap to micro-batch multiples
  (:func:`~repro.scanpar.sharding.partition_origins`), so every
  worker's batches are exactly the sequential scan's batches — and
  every worker is told the *whole* scan's origins with its span of
  them, so an engine worker shares feature maps on the scan's own
  chunk grid (docs/engine.md, "Windows of one raster"): a chunk it
  needs is the same program over the same pixels as in the sequential
  scan, and a shard only recomputes the chunks its first window row
  straddles;
* execution runs on a persistent warm worker pool
  (:class:`~repro.scanpar.pool.WorkerPool`): workers stay alive across
  scans, cache the deserialized model (and its warmed compiled-engine
  programs) by content hash, and write their raw results into
  parent-allocated shared-memory slabs instead of pickling ndarrays
  back through the pipe;
* shard results merge deterministically: concatenation in shard order
  restores the sequential origin order, the shared threshold/NMS code
  runs on the parent, and the result — detections *and* coverage — is
  byte-identical to ``n_workers=1``.

``n_workers="auto"`` (the default) makes the parallelism adaptive: the
worker count derives from the visible CPU affinity, the scan's
micro-batch count, and a measured spawn-cost threshold — on a one-core
box (or a scene too small to amortize a cold spawn) the scan inlines to
the sequential path, so parallelism is never a regression by
construction.

The robust path (``sanitize=``/``journal=``) keeps PR 4's guarantees:
workers journal per-shard JSONL files that the parent absorbs into the
single main journal (:meth:`~repro.robust.ScanJournal.absorb_shards`),
so a scan killed mid-flight — parent or worker — resumes under either
the parallel or the sequential scanner without re-running finished
tiles.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
import warnings
from contextlib import ExitStack
from typing import TYPE_CHECKING

import numpy as np

from ..detect.scan import (
    ScanCoverage,
    ScanDetections,
    SceneDetection,
    _coverage_from_records,
    _detections_from_outputs,
    _scan_meta,
    non_max_suppression,
    scan_origins,
    scan_scene,
)
from .pool import WorkerPool, get_pool, warm_pool
from .sharding import partition_origins
from .shm import SharedArray
from .worker import ShardTask, _batch_sizes, _warm_engine

if TYPE_CHECKING:
    from ..geo.scene import Scene
    from ..robust.journal import ScanJournal
    from ..robust.sanitize import SanitizePolicy

__all__ = ["parallel_scan_scene", "default_start_method",
           "resolve_n_workers", "cpu_affinity_count", "spawn_cost_ms",
           "record_spawn_cost"]


def default_start_method() -> str:
    """The safe multiprocessing start method for this process *right
    now*.

    ``fork`` is preferred when available (workers inherit the loaded
    modules — no re-import cost), but forking a process that already
    runs threads is a known deadlock source: the child inherits locks
    frozen in whatever state the other threads held at fork time.  A
    scan issued from inside ``serve.InferenceService`` (batcher + worker
    threads) is exactly that situation, so once
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

#: prior spawn cost per worker before any pool has measured one
_DEFAULT_SPAWN_MS = {"fork": 60.0, "forkserver": 300.0, "spawn": 800.0}

_MEASURED_SPAWN_MS: dict[str, float] = {}
_SPAWN_MS_LOCK = threading.Lock()


def record_spawn_cost(start_method: str, per_worker_ms: float) -> None:
    """Fold one measured per-worker spawn time into the policy's
    estimate (exponential moving average; called by every
    :class:`~repro.scanpar.pool.WorkerPool` spawn)."""
    with _SPAWN_MS_LOCK:
        prior = _MEASURED_SPAWN_MS.get(start_method)
        _MEASURED_SPAWN_MS[start_method] = (
            per_worker_ms if prior is None
            else 0.5 * prior + 0.5 * per_worker_ms
        )


def spawn_cost_ms(start_method: str | None = None) -> float:
    """Per-worker spawn cost estimate: measured when any pool has
    spawned with this start method, a conservative prior otherwise."""
    method = start_method or default_start_method()
    with _SPAWN_MS_LOCK:
        measured = _MEASURED_SPAWN_MS.get(method)
    return measured if measured is not None \
        else _DEFAULT_SPAWN_MS.get(method, 800.0)


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

    1. the budget is ``min(visible CPUs, micro-batches // 2)`` — never
       more workers than cores (oversubscription only adds context
       switching) and at least :data:`MIN_BATCHES_PER_WORKER` batches
       each (thinner shards cannot amortize dispatch);
    2. a budget below 2 inlines to the sequential scan — this is what
       stops one-core CI boxes from regressing by construction;
    3. with no warm pool to reuse (``pool_warm=False``), the scene must
       be large enough to pay for spawning: at least
       ``spawn_cost_ms * budget * COLD_SPAWN_TILES_PER_MS`` tiles,
       where the spawn cost is *measured* from previous pool spawns
       (:func:`record_spawn_cost`) when available.

    ``cpus`` and ``pool_warm`` are injectable for tests; they default to
    the live affinity count and the shared pool's existence.
    """
    if n_workers != "auto":
        n = int(n_workers)
        if n < 1:
            raise ValueError("n_workers must be >= 1 (or 'auto')")
        return n
    if cpus is None:
        cpus = cpu_affinity_count()
    n_batches = -(-n_origins // batch_size) if n_origins else 0  # ceil
    budget = min(cpus, n_batches // MIN_BATCHES_PER_WORKER)
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


# dtype each backend's predict() emits — sizes the parent-allocated
# result slabs.  A mismatch is safe (workers detect it and return
# inline) but loud (_note_slab_fallbacks); the map only has to be right
# for the zero-pickle fast path.
_RESULT_DTYPES = {"eager": np.float64, "engine": np.float32}


def parallel_scan_scene(
    model,
    scene: "Scene",
    *,
    window: int = 100,
    stride: int = 50,
    confidence_threshold: float = 0.7,
    nms_radius: float = 20.0,
    batch_size: int = 20,
    backend: str = "eager",
    sanitize: "SanitizePolicy | None" = None,
    journal: "ScanJournal | str | None" = None,
    resume: bool = False,
    n_workers: int | str = "auto",
    start_method: str | None = None,
    pool: WorkerPool | None = None,
    reuse_pool: bool = True,
    supervision=None,
    deadline_s: float | None = None,
) -> ScanDetections:
    """Shard a scene scan across pool workers.

    Accepts the same detection parameters as
    :func:`repro.detect.scan_scene` and returns the same
    :class:`~repro.detect.ScanDetections` — byte-identical to the
    sequential scan's, by construction (see module docstring for the
    contract).

    ``n_workers`` may be an int or ``"auto"`` (adaptive, the default;
    see :func:`resolve_n_workers`).  ``pool`` runs the scan on a
    caller-owned :class:`~repro.scanpar.pool.WorkerPool` (the serving
    layer ties one to its lifecycle); otherwise the shared persistent
    pool for ``start_method`` is used — pass ``reuse_pool=False`` to
    force a private single-scan pool (cold path, mainly for
    benchmarking the pool's own benefit).

    ``supervision`` (a ``repro.fleet.SupervisionPolicy``, or ``True``
    for the defaults) replaces the pool's trusting FIFO dispatch with
    the fleet supervisor: per-shard deadlines, hung/dead worker
    kill-and-revive with redispatch, and poison-shard quarantine that
    degrades to inline execution — recovery is invisible to the merge,
    so the byte-identity contract holds under faults.  ``deadline_s``
    bounds the whole dispatch (it implies supervision) and raises
    :class:`~repro.detect.scan.ScanDeadlineError` on expiry.  When
    supervision ran, the returned :class:`~repro.detect.ScanDetections`
    carries the :class:`~repro.fleet.SupervisionReport` as a
    ``.supervision`` attribute.
    """
    if deadline_s is not None and deadline_s <= 0:
        raise ValueError("deadline_s must be positive or None")
    deadline_at = (time.monotonic() + deadline_s
                   if deadline_s is not None else None)
    origins = scan_origins(scene.size, window, stride)
    n_workers = resolve_n_workers(
        n_workers, n_origins=len(origins), batch_size=batch_size,
        start_method=start_method,
        pool_warm=True if pool is not None else None,
    )
    def sequential():
        remaining = None
        if deadline_at is not None:
            remaining = max(deadline_at - time.monotonic(), 1e-3)
        return scan_scene(
            model, scene, window=window, stride=stride,
            confidence_threshold=confidence_threshold,
            nms_radius=nms_radius, batch_size=batch_size, backend=backend,
            sanitize=sanitize, journal=journal, resume=resume,
            timeout_s=remaining,
        )

    if n_workers == 1:
        return sequential()

    image = np.asarray(scene.image)
    robust = sanitize is not None or journal is not None
    if resume and journal is None:
        raise ValueError("resume=True requires a journal")

    shards = partition_origins(len(origins), n_workers, batch_size)
    if len(shards) < 2:
        return sequential()
    meta = _scan_meta(scene.size, image.shape[0], window, stride,
                      confidence_threshold, backend)

    own_pool: WorkerPool | None = None
    if pool is None:
        if reuse_pool:
            pool = get_pool(len(shards), start_method)
        else:
            pool = own_pool = WorkerPool(len(shards),
                                         start_method=start_method)
    try:
        if backend == "engine":
            # Solve before shipping: bind what the workers will run in
            # the PARENT first (the scan's shared prefix and per-window
            # suffix, or the per-tile trunk of a robust scan, and a
            # head per micro-batch size), so ensure_model ships the
            # IOS schedules and no worker re-measures or re-solves.
            # compiled_for caches per model instance, so repeat scans
            # pay nothing here.
            if robust:
                sizes = {1}
            else:
                sizes = set().union(*(_batch_sizes(shard.size, batch_size)
                                      for shard in shards))
            _warm_engine(model, image.shape, window, sorted(sizes),
                         None if robust else origins)
        model_hash = pool.ensure_model(model)
        run_tasks, report_cell = _make_task_runner(
            pool, model, supervision=supervision, deadline_at=deadline_at,
        )
        if robust:
            result = _parallel_robust(
                model_hash, image, origins, shards, meta, pool,
                window=window, nms_radius=nms_radius, batch_size=batch_size,
                backend=backend, confidence_threshold=confidence_threshold,
                sanitize=sanitize, journal=journal, resume=resume,
                run_tasks=run_tasks,
            )
            if report_cell:
                result.supervision = report_cell[0]
            return result

        with SharedArray(image) as shared, ExitStack() as slabs_stack:
            # one result slab per shard, sized from its origin count:
            # column 0 confidences, columns 1:5 boxes.  Parent-owned, so
            # cleanup is guaranteed even when a worker dies mid-shard.
            slabs = [
                slabs_stack.enter_context(SharedArray.allocate(
                    (shard.size, 5), _RESULT_DTYPES.get(backend, np.float64)
                ))
                for shard in shards
            ]
            tasks = [
                ShardTask(
                    shard_index=shard.index, start=shard.start,
                    stop=shard.stop, shm=shared.spec(),
                    model_hash=model_hash,
                    scene_size=scene.size, window=window, stride=stride,
                    batch_size=batch_size, backend=backend,
                    confidence_threshold=confidence_threshold,
                    result=slab.spec(),
                )
                for shard, slab in zip(shards, slabs)
            ]
            payloads = run_tasks(tasks)
            # shard order == origin order: concatenation restores the
            # exact sequence the sequential scan feeds to threshold+NMS
            conf_parts, box_parts = [], []
            for slab, payload in zip(slabs, payloads):
                if payload["via_slab"]:
                    out = slab.array()
                    conf_parts.append(out[:, 0].copy())
                    box_parts.append(out[:, 1:5].copy())
                else:  # dtype-map miss: worker returned arrays inline
                    conf_parts.append(payload["confidences"])
                    box_parts.append(payload["boxes"])
            _note_slab_fallbacks(pool, payloads)
        confidences = np.concatenate(conf_parts)
        boxes = np.concatenate(box_parts)
        detections = _detections_from_outputs(
            origins, confidences, boxes, window, confidence_threshold
        )
        coverage = ScanCoverage(tiles_total=len(origins),
                                tiles_scanned=len(origins))
        result = ScanDetections(
            non_max_suppression(detections, radius=nms_radius), coverage
        )
        if report_cell:
            result.supervision = report_cell[0]
        return result
    finally:
        if own_pool is not None:
            own_pool.close()


def _note_slab_fallbacks(pool: WorkerPool, payloads: list[dict]) -> None:
    """Count and report shards that returned their arrays through the
    pipe because the result slab had the wrong dtype: the scan is still
    byte-identical, but it pickled what the slabs exist to avoid."""
    reasons = [p["slab_fallback"] for p in payloads
               if p.get("slab_fallback")]
    if reasons:
        pool.stats["slab_fallbacks"] += len(reasons)
        warnings.warn(
            f"{len(reasons)} of {len(payloads)} shards returned results "
            f"inline instead of through their slab: {reasons[0]}",
            RuntimeWarning, stacklevel=3)


def _make_task_runner(pool: WorkerPool, model, *, supervision,
                      deadline_at: float | None):
    """(run_tasks, report_cell): the shard dispatch strategy.

    Plain ``pool.run`` unless supervision (or a deadline, which implies
    it) was requested — then a ``repro.fleet.ShardSupervisor`` takes
    over and its :class:`~repro.fleet.SupervisionReport` lands in
    ``report_cell[0]``.  The fleet import stays lazy to keep
    ``repro.scanpar`` importable without ``repro.fleet`` (which imports
    back into this package).
    """
    report_cell: list = []
    if not supervision and deadline_at is None:
        return pool.run, report_cell
    from ..fleet.supervise import ShardSupervisor, SupervisionPolicy

    policy = supervision if isinstance(supervision, SupervisionPolicy) \
        else None
    supervisor = ShardSupervisor(pool, model, policy)

    def run_tasks(tasks: list) -> list[dict]:
        payloads, report = supervisor.run(tasks, deadline_at=deadline_at)
        report_cell[:] = [report]
        return payloads

    return run_tasks, report_cell


def _parallel_robust(
    model_hash: str,
    image: np.ndarray,
    origins: list[tuple[int, int]],
    shards,
    meta: dict,
    pool: WorkerPool,
    *,
    window: int,
    nms_radius: float,
    batch_size: int,
    backend: str,
    confidence_threshold: float,
    sanitize,
    journal,
    resume: bool,
    run_tasks,
) -> ScanDetections:
    """Sharded robust scan: per-shard journals merged into one."""
    from ..robust.journal import ScanJournal, TileRecord
    from ..robust.sanitize import SanitizePolicy

    policy = sanitize if sanitize is not None \
        else SanitizePolicy.for_scene(bands=image.shape[0])

    jr: ScanJournal | None = None
    if journal is not None:
        jr = journal if isinstance(journal, ScanJournal) else ScanJournal(journal)
    done: dict[int, TileRecord] = {}
    if jr is not None:
        if resume:
            done = jr.resume_or_start(meta)
        else:
            jr.start(meta)

    skip = frozenset(done)
    with SharedArray(image) as shared:
        tasks = [
            ShardTask(
                shard_index=shard.index, start=shard.start, stop=shard.stop,
                shm=shared.spec(), model_hash=model_hash,
                scene_size=int(meta["scene_size"]), window=window,
                stride=int(meta["stride"]), batch_size=batch_size,
                backend=backend,
                confidence_threshold=confidence_threshold,
                robust=True, policy=policy,
                journal_path=(str(jr.shard_path(shard.index))
                              if jr is not None else None),
                journal_meta=meta, skip=skip,
            )
            for shard in shards
        ]
        payloads = run_tasks(tasks)

    fresh = [rec for payload in payloads for rec in payload["records"]]
    if jr is not None:
        # the merge: fold every shard journal into the single resumable
        # main journal, then drop the shard files
        jr.absorb_shards(meta)

    records = sorted(list(done.values()) + fresh, key=lambda rec: rec.index)
    detections = [
        SceneDetection(row=row, col=col, height=h, width=w, confidence=conf)
        for rec in records for (row, col, h, w, conf) in rec.detections
    ]
    coverage = _coverage_from_records(
        records, tiles_total=len(origins), tiles_resumed=len(done),
        engine_fallbacks=sum(
            sum(payload["fallbacks"].values()) for payload in payloads
        ),
    )
    return ScanDetections(non_max_suppression(detections, radius=nms_radius),
                          coverage)
