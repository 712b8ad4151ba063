"""Worker-process entry point for sharded scene scanning.

Each worker receives one :class:`ShardTask` — a few ints, the shared
raster's name, and the model's content hash (plus its pickled bytes
only when the worker has not cached it yet), attaches to the scene in
shared memory, warms the compiled engine's program cache *once* for
what its shard will actually run, and pulls its contiguous origin range
through :func:`repro.detect.predict.predict_windows` — the same batch
generator the sequential scan consumes, told the *whole* scan's origins
and the shard's span of them, so an engine worker shares feature maps
on the scan's own chunk grid and computes the bytes the sequential scan
computes.

Result return is shared-memory first: non-robust shards write their
``(confidences, boxes)`` into the parent-allocated result slab named by
``task.result`` (an ``(n, 5)`` block — column 0 the confidences,
columns 1:5 the boxes — sized from the shard's origin count), so no
ndarray is ever pickled back through the pipe; the reply is a small
metadata dict.  If the backend's output dtype does not match the slab
(the parent sizes slabs from a per-backend dtype map), the worker
returns the arrays inline rather than cast — correctness never depends
on the map being right — and says so: the payload's ``slab_fallback``
carries the reason, which the parent counts and warns about.  Robust
shards run the per-tile sanitize/quarantine loop from
:mod:`repro.detect.scan` and journal into a per-shard JSONL file the
parent later absorbs; their per-tile records return through the pipe as
before (small, not ndarrays).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field

import numpy as np

from .shm import attach_array

__all__ = ["ShardTask", "run_shard"]


@dataclass(frozen=True)
class ShardTask:
    """Everything one worker needs, picklable and raster-free."""

    shard_index: int
    start: int                    # origin-list index range [start, stop)
    stop: int
    shm: dict                     # SharedArray.spec() of the scene raster
    scene_size: int
    window: int
    stride: int
    batch_size: int
    backend: str
    confidence_threshold: float
    model_hash: str | None = None     # worker-side model cache key
    model_bytes: bytes | None = None  # pickled detector (cache-miss fill)
    result: dict | None = None        # SharedArray.spec() of the (n, 5)
    #                                   result slab (non-robust shards)
    robust: bool = False
    policy: object | None = None          # SanitizePolicy (robust only)
    journal_path: str | None = None       # shard journal (robust only)
    journal_meta: dict | None = None
    skip: frozenset = field(default_factory=frozenset)  # resumed indices


def _resolve_model(task: ShardTask, cache: dict | None) -> tuple[object, bool]:
    """(model, came_from_cache).  Pool workers pass their long-lived
    cache — the same model object (and therefore the same warmed
    ``compiled_for`` program cache) survives across scans."""
    if cache is not None and task.model_hash is not None:
        model = cache.get(task.model_hash)
        if model is not None:
            return model, True
    if task.model_bytes is None:
        raise RuntimeError(
            f"model {task.model_hash!r} is not in this worker's cache and "
            f"the task carries no model bytes; call pool.ensure_model() "
            f"before pool.run()"
        )
    model = pickle.loads(task.model_bytes)
    if cache is not None and task.model_hash is not None:
        cache[task.model_hash] = model
    return model, False


def _batch_sizes(n: int, batch_size: int) -> set[int]:
    """The micro-batch sizes a span of ``n`` origins runs: full batches
    and the ragged last one."""
    return {min(batch_size, n), n % batch_size} - {0}


def _warm_engine(model, image_shape: tuple[int, ...], window: int,
                 batch_sizes: list[int], origins=None) -> tuple[float, int]:
    """Pre-build the engine programs a shard will execute; returns
    ``(warmup milliseconds, IOS DP solves paid)`` (compile paid once per
    worker process — and, with a persistent pool, once per model
    *lifetime*, because warmup of an already-cached program costs
    nothing).  With ``origins`` (the whole scan's) that is what
    ``predict_windows`` runs over the raster — the shared prefix and
    per-window suffix when the scan shares feature maps; without, the
    per-tile programs of the robust path.  The solve count is the
    pool's schedule-shipping health signal: a worker seeded with the
    parent's schedules warms with zero solves."""
    from ..engine import compiled_for, sched

    model.eval()
    compiled = compiled_for(model)
    solves_before = sched.stats()["solves"]
    if origins is None:
        warmup_ms = compiled.warmup(batch_sizes,
                                    (image_shape[0], window, window))
    else:
        warmup_ms = compiled.warmup_windows(image_shape, window, origins,
                                            batch_sizes)
    return warmup_ms, sched.stats()["solves"] - solves_before


def run_shard(task: ShardTask, model_cache: dict | None = None) -> dict:
    """Scan one shard; returns a small picklable result payload.

    ``model_cache`` is the pool worker's hash-keyed model cache; one-shot
    callers may omit it (the model is then unpickled from
    ``task.model_bytes`` every call, PR 5 behavior).
    """
    from ..detect.scan import (
        _make_tile_runner,
        _scan_tiles_robust,
        scan_origins,
    )

    model, model_cached = _resolve_model(task, model_cache)
    origins = scan_origins(task.scene_size, task.window, task.stride)
    with attach_array(task.shm) as shared:
        image = shared.array

        if task.robust:
            # per-tile isolation: every batch is one tile, warm that shape
            warmup_ms, sched_solves = 0.0, 0
            if task.backend == "engine":
                warmup_ms, sched_solves = _warm_engine(
                    model, image.shape, task.window, [1])
            run, guarded = _make_tile_runner(model, task.backend)
            journal = None
            if task.journal_path is not None:
                from ..robust.journal import ScanJournal

                journal = ScanJournal(task.journal_path)
                journal.start(task.journal_meta)
            items = [(index, origins[index])
                     for index in range(task.start, task.stop)
                     if index not in task.skip]
            records = _scan_tiles_robust(
                run, image, items, window=task.window, policy=task.policy,
                confidence_threshold=task.confidence_threshold,
                journal=journal,
            )
            return {
                "shard": task.shard_index,
                "records": records,
                "fallbacks": (dict(guarded.fallback_by_reason)
                              if guarded is not None else {}),
                "warmup_ms": warmup_ms,
                "model_cached": model_cached,
                "sched_solves": sched_solves,
            }

        warmup_ms, sched_solves, plan = 0.0, 0, None
        if task.backend == "engine":
            from ..engine import compiled_for

            sizes = _batch_sizes(task.stop - task.start, task.batch_size)
            warmup_ms, sched_solves = _warm_engine(
                model, image.shape, task.window, sorted(sizes), origins)
            plan = compiled_for(model).window_plan(
                image.shape, task.window, origins).to_json()
        from ..detect.predict import predict_windows

        payload = {
            "shard": task.shard_index,
            "warmup_ms": warmup_ms,
            "model_cached": model_cached,
            "sched_solves": sched_solves,
            # how the engine ran this shard's windows (None: eager)
            "window_plan": plan,
            "via_slab": False,
            "slab_fallback": None,
        }
        parts = list(predict_windows(
            model, image, origins, task.window, batch_size=task.batch_size,
            backend=task.backend, span=(task.start, task.stop)))
        confidences = np.concatenate([conf for conf, _ in parts])
        boxes = np.concatenate([box for _, box in parts])
        if task.result is not None:
            with attach_array(task.result) as slab:
                if confidences.dtype == boxes.dtype == slab.array.dtype:
                    slab.array[:, 0] = confidences
                    slab.array[:, 1:5] = boxes
                    payload["via_slab"] = True
                    return payload
                # the parent sized the slab for another dtype: return
                # inline rather than cast (the merge must stay
                # byte-identical to the sequential scan), and say so
                payload["slab_fallback"] = (
                    f"{task.backend} backend returned {confidences.dtype} "
                    f"confidences and {boxes.dtype} boxes for a "
                    f"{slab.array.dtype} result slab")
        payload["confidences"] = confidences
        payload["boxes"] = boxes
        return payload
