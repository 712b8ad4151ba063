"""Worker-process entry point for sharded scene scanning.

Each worker receives one :class:`ShardTask` — a few ints, the shared
raster's name and the model's content hash (the model itself arrived
once, through ``WorkerPool.ensure_model``) — attaches to the scene in
shared memory, warms the compiled engine's program cache *once* for
what its shard will actually run, and hands its contiguous origin range
to :func:`repro.detect.scan.scan_span`: the tile pipeline the inline
scan runs, told the *whole* scan's origins and the shard's span of
them, so a worker shares feature maps on the scan's own chunk
grid and computes the bytes the inline scan computes.

Result return is shared-memory first: batched shards write their
``(confidences, boxes)`` into the parent-allocated result slab named by
``task.result`` (an ``(n, 5)`` float32 block — column 0 the
confidences, columns 1:5 the boxes — sized from the shard's origin
count), so no ndarray is ever pickled back through the pipe; the reply
is a small metadata dict.  A slab of any other dtype is refused, not
cast into: the merge must stay byte-identical to the inline scan.
Robust shards (``task.verdicts`` set) read the repaired raster the parent
shared, take each tile's verdict from the task, journal into a per-shard
JSONL file the parent later absorbs, and return their per-tile records
through the pipe (small, not ndarrays).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .shm import attach_array

__all__ = ["ShardTask", "run_shard"]


@dataclass(frozen=True)
class ShardTask:
    """Everything one worker needs, picklable and raster-free; its scan
    fields are a :class:`~repro.detect.ScanSpec` on the wire."""

    shard_index: int
    start: int                    # origin-list index range [start, stop)
    stop: int
    shm: dict                     # SharedArray.spec() of the scene raster
    scene_size: int
    window: int
    stride: int
    batch_size: int
    confidence_threshold: float
    backend: str = "engine"           # its one legal value (ROADMAP item 1)
    model_hash: str | None = None     # worker-side model cache key
    result: dict | None = None        # SharedArray.spec() of the (n, 5)
    #                                   result slab (batched shards)
    verdicts: dict | None = None          # a robust shard: {index:
    #                                       (status, reason)} of the
    #                                       scan's tiles that are not "ok"
    journal_path: str | None = None       # shard journal (robust only)
    skip: frozenset = field(default_factory=frozenset)  # resumed indices

    def __post_init__(self) -> None:
        from ..detect.scan import _require_engine

        _require_engine(self.backend, "a scan shard")


def _warm_engine(model, image_shape: tuple[int, ...], spec,
                 n_origins: int, origins) -> float:
    """Pre-build the engine programs a span that runs ``n_origins``
    origins will execute; returns the warmup milliseconds (compile paid
    once per worker process — and, with a persistent pool, once per
    model *lifetime*, because warmup of an already-cached program costs
    nothing).  Both stages run what ``predict_windows`` runs over the
    raster for the whole scan's ``origins`` — the shared prefix and
    per-window suffix when the scan shares feature maps, the window's
    one-sample trunk when the scene edge leaves windows off the shared
    grid (``warmup_windows`` binds it with the plan, so no shard's first
    edge window binds inside its timed scan) — and a head per
    micro-batch size (full batches and the span's ragged last one; a
    robust span counts the tiles it runs, not the quarantined ones)."""
    from ..engine import compiled_for

    model.eval()
    compiled = compiled_for(model)
    sizes = {size for size in (min(spec.batch_size, n_origins),
                               n_origins % spec.batch_size) if size}
    return compiled.warmup_windows(image_shape, spec.window, origins,
                                   sorted(sizes))


def run_shard(task: ShardTask, model_cache: dict | None = None) -> dict:
    """Scan one shard; returns a small picklable result payload.

    ``model_cache`` maps content hash -> model: the pool worker's
    long-lived cache, or ``{task.model_hash: model}`` from a caller that
    runs the shard in its own process.  The same model object (and so
    the same warmed ``compiled_for`` programs) survives across scans.
    """
    from ..detect.scan import ScanSpec, scan_span
    from ..engine import compiled_for

    spec = ScanSpec(task.window, task.stride, task.confidence_threshold,
                    batch_size=task.batch_size)
    model = (model_cache or {}).get(task.model_hash)
    if model is None:
        raise RuntimeError(
            f"model {task.model_hash!r} is not in this worker's cache; "
            f"call pool.ensure_model() before pool.run()"
        )
    origins = spec.origins(task.scene_size)
    robust = task.verdicts is not None
    runs = range(task.start, task.stop)
    if robust:
        runs = [i for i in runs if i not in task.skip and task.verdicts.get(
            i, ("ok",))[0] != "quarantined"]
    with attach_array(task.shm) as shared:
        image = shared.array
        warmup_ms = _warm_engine(model, image.shape, spec, len(runs), origins)
        journal = None
        if task.journal_path is not None:
            from ..robust.journal import ScanJournal

            journal = ScanJournal(task.journal_path)
            journal.start(spec.journal_header(task.scene_size, image.shape[0]))
        payload = scan_span(model, image, origins, (task.start, task.stop), spec,
                            verdicts=task.verdicts, skip=task.skip,
                            journal=journal)
        payload.update(shard=task.shard_index, warmup_ms=warmup_ms,
                       model_cached=True)
        if robust:
            return payload
        # how the engine ran this shard's windows
        payload.update(window_plan=compiled_for(model).window_plan(
            image.shape, spec.window, origins).to_json(),
            via_slab=task.result is not None)
        if task.result is not None:
            confidences = payload.pop("confidences")
            boxes = payload.pop("boxes")
            with attach_array(task.result) as slab:
                if not confidences.dtype == boxes.dtype == slab.array.dtype:
                    # a cast would make the merge differ from the inline
                    # scan's bytes
                    raise TypeError(
                        f"result slab is {slab.array.dtype}, but the engine "
                        f"returned {confidences.dtype} confidences and "
                        f"{boxes.dtype} boxes")
                slab.array[:, 0] = confidences
                slab.array[:, 1:5] = boxes
        return payload
