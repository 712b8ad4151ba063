"""Full-scene crossing detection: sliding window + NMS.

The chips of §3.2 are a training convenience; deployment means finding
*all* crossings in a watershed image.  :func:`scan_scene` slides the
trained detector over the scene (windowing keeps localization within
the box head's trained operating range), collects per-window
detections, and merges them with non-maximum suppression.
:func:`evaluate_scene_detections` scores the result against
ground-truth crossing locations by center distance — the operational
metric a hydrologist cares about (is the breach applied at the right
cell?).

The batched scan pulls its model outputs from one generator,
:func:`repro.detect.predict.predict_windows`.  On the engine that is
SPP-Net's own economy: the conv layers overlapping windows share run
once per scene row chunk and each window only crops their feature map
(``docs/engine.md``, "Windows of one raster"), so no window stack is
ever materialized and the result is bitwise the per-window one.  On the
eager backend tiles stream through a strided-view micro-batch buffer
(:class:`repro.scanpar.TileSource`), so peak tile memory is one
``batch_size`` stack regardless of scene size.  ``n_workers > 1`` shards
the scan across processes (:func:`repro.scanpar.parallel_scan_scene`)
with a byte-identical determinism contract — see ``docs/scanning.md``.

Production scenes are not pristine: tiles arrive with NaN pixels, nodata
holes, dropped bands, and saturation (see :mod:`repro.robust`).  Passing
``sanitize=`` and/or ``journal=`` switches :func:`scan_scene` into its
*robust* mode — every tile is validated/repaired/quarantined behind a
per-tile fault boundary, outcomes stream to an append-only JSONL scan
journal, and ``resume=True`` replays a crashed scan's journaled tiles
verbatim so the finished result is identical to an uninterrupted run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..geo.crossings import Crossing
from ..geo.scene import Scene
from .predict import predict, predict_windows
from .sppnet import SPPNetDetector

if TYPE_CHECKING:
    from ..robust.journal import ScanJournal, TileRecord
    from ..robust.sanitize import SanitizePolicy
    from ..serve import InferenceService

__all__ = ["SceneDetection", "SceneDetectionScores", "ScanCoverage",
           "ScanDetections", "ScanDeadlineError", "scan_origins",
           "non_max_suppression", "scan_scene", "evaluate_scene_detections"]


class ScanDeadlineError(TimeoutError):
    """A scan's wall-clock deadline expired before it finished.

    Raised by the fleet supervisor (``repro.fleet.supervise``) when a
    run-level deadline — typically a per-request deadline propagated
    from ``serve.InferenceService.scan_scene(timeout_s=...)`` — passes
    with shards still in flight.  Journaled scans lose nothing: the
    tiles finished before the deadline are on disk and a later
    ``resume=True`` scan picks up from them.
    """


@dataclass(frozen=True)
class SceneDetection:
    """One detected crossing in scene coordinates."""

    row: float
    col: float
    height: float
    width: float
    confidence: float

    @property
    def center(self) -> tuple[int, int]:
        return (int(round(self.row)), int(round(self.col)))

    def is_finite(self) -> bool:
        return all(math.isfinite(v) for v in
                   (self.row, self.col, self.height, self.width,
                    self.confidence))


def non_max_suppression(detections: list[SceneDetection],
                        radius: float = 20.0) -> list[SceneDetection]:
    """Greedy NMS by center distance: keep the most confident detection,
    drop any lower-confidence detection within ``radius`` cells of a kept
    one.

    Detections with a non-finite confidence or geometry are dropped
    before sorting: a NaN confidence sorts unpredictably (every
    comparison is False), and a NaN that survives to a score artifact
    crashes its ``allow_nan=False`` serialization long after the scan.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    kept: list[SceneDetection] = []
    finite = [d for d in detections if d.is_finite()]
    for det in sorted(finite, key=lambda d: -d.confidence):
        if all((det.row - k.row) ** 2 + (det.col - k.col) ** 2 > radius**2
               for k in kept):
            kept.append(det)
    return kept


def scan_origins(size: int, window: int, stride: int) -> list[tuple[int, int]]:
    """Window origins covering a ``size``-by-``size`` scene completely.

    A final origin at ``size - window`` is always included so coverage
    reaches the scene edge even when ``size - window`` is not a multiple
    of ``stride``.
    """
    if window > size:
        raise ValueError(f"window {window} exceeds scene size {size}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    starts = list(range(0, size - window, stride)) + [size - window]
    return [(r, c) for r in starts for c in starts]


@dataclass(frozen=True)
class ScanCoverage:
    """How much of a scene a (robust) scan actually saw.

    tiles_scanned counts tiles that produced a model answer (clean or
    repaired); quarantined tiles were skipped by design, never silently.
    """

    tiles_total: int
    tiles_scanned: int
    tiles_repaired: int = 0
    tiles_quarantined: int = 0
    tiles_resumed: int = 0
    engine_fallbacks: int = 0

    @property
    def coverage(self) -> float:
        return self.tiles_scanned / self.tiles_total if self.tiles_total else 0.0

    def to_json(self) -> dict:
        return {
            "tiles_total": self.tiles_total,
            "tiles_scanned": self.tiles_scanned,
            "tiles_repaired": self.tiles_repaired,
            "tiles_quarantined": self.tiles_quarantined,
            "tiles_resumed": self.tiles_resumed,
            "engine_fallbacks": self.engine_fallbacks,
            "coverage": self.coverage,
        }


class ScanDetections(list):
    """``scan_scene``'s return type: a plain list of
    :class:`SceneDetection` that also carries the scan's
    :class:`ScanCoverage` (every existing list-consuming caller keeps
    working; robustness-aware callers read ``.coverage``)."""

    def __init__(self, detections, coverage: ScanCoverage) -> None:
        super().__init__(detections)
        self.coverage = coverage


def _detections_from_outputs(
    origins: list[tuple[int, int]],
    confidences: np.ndarray,
    boxes: np.ndarray,
    window: int,
    confidence_threshold: float,
) -> list[SceneDetection]:
    """Threshold + scene-coordinate mapping of raw model outputs.

    One shared implementation for the sequential and sharded scans: the
    parallel merge feeds concatenated per-shard outputs through this
    exact code, so thresholding and coordinate math cannot drift between
    the two paths.
    """
    detections: list[SceneDetection] = []
    for (r0, c0), conf, box in zip(origins, confidences, boxes):
        if not conf >= confidence_threshold:  # also skips NaN confidence
            continue
        cx, cy, w, h = box
        detections.append(SceneDetection(
            row=r0 + cy * window,
            col=c0 + cx * window,
            height=h * window,
            width=w * window,
            confidence=float(conf),
        ))
    return detections


def _scan_meta(scene_size: int, bands: int, window: int, stride: int,
               confidence_threshold: float, backend: str) -> dict:
    """Journal header describing one scan configuration.

    Deliberately excludes ``n_workers`` and ``batch_size``: a journal
    written by a parallel scan must resume under a sequential one (and
    vice versa), so only parameters that change the *result* participate
    in the header identity check.
    """
    return {
        "scene_size": int(scene_size),
        "bands": int(bands),
        "window": int(window),
        "stride": int(stride),
        "confidence_threshold": float(confidence_threshold),
        "backend": backend,
    }


def scan_scene(
    model: SPPNetDetector,
    scene: Scene,
    window: int = 100,
    stride: int = 50,
    confidence_threshold: float = 0.7,
    nms_radius: float = 20.0,
    batch_size: int = 20,
    service: "InferenceService | None" = None,
    backend: str = "eager",
    sanitize: "SanitizePolicy | None" = None,
    journal: "ScanJournal | str | None" = None,
    resume: bool = False,
    n_workers: int | str = 1,
    pool=None,
    timeout_s: float | None = None,
    supervision=None,
) -> ScanDetections:
    """Detect crossings across a whole scene.

    Overlapping windows (default 50% overlap) guarantee every crossing is
    near the center of at least one window; the per-window box regression
    is mapped back to scene coordinates before NMS.  The confidence
    threshold defaults to 0.7 like the related-work faster-R-CNN baseline.

    Memory does not grow with the scene's tile count: an engine scan
    holds a few rows of shared feature map (linear in the scene's
    width), an eager scan one reused micro-batch buffer of
    ``batch_size * bands * window**2`` floats.  ``n_workers > 1`` (or
    ``"auto"``, which derives the count from CPU affinity and scene
    size and inlines to sequential when parallelism cannot win) runs
    the scan sharded across the persistent warm worker pool
    (:func:`repro.scanpar.parallel_scan_scene`): the scene raster is
    shared zero-copy, pool workers cache the deserialized model and its
    warmed compiled engine across scans, results return through
    shared-memory slabs, and the merged result is byte-identical to
    this sequential scan.  ``pool`` optionally pins the scan to a
    caller-owned :class:`repro.scanpar.WorkerPool`.

    With a ``service`` (:class:`repro.serve.InferenceService`), windows
    are submitted as individual requests instead of one local ``predict``
    call — the service micro-batches them, repeat tiles hit its LRU
    cache, and concurrent scans share the same worker pool.  The
    service's own backend applies there; ``backend`` selects the local
    path's execution (``"engine"`` = compiled inference engine).

    Passing ``sanitize`` (a :class:`~repro.robust.SanitizePolicy`) or
    ``journal`` (a path or :class:`~repro.robust.ScanJournal`) enables
    the robust path: tiles are sanitized per policy, every tile runs
    behind its own fault boundary (a poisoned tile is quarantined and
    recorded, never fatal), outcomes stream to the journal, and
    ``resume=True`` continues a crashed scan from it — journaled tiles
    are replayed verbatim, so the resumed result is identical to an
    uninterrupted run.  The robust path executes the model one tile at a
    time: that per-tile isolation is what makes quarantine exact and
    resumed numerics batch-composition-independent.  With
    ``backend="engine"`` it also runs through the guarded engine→eager
    fallback (:class:`~repro.robust.GuardedEngine`).

    ``timeout_s`` bounds the scan's wall clock: past the deadline the
    scan raises :class:`ScanDeadlineError` instead of running on.  On
    the sequential paths the deadline is checked between batches (or
    tiles, on the robust path — journaled tiles stay resumable); on the
    parallel path it becomes the fleet supervisor's run deadline, and
    on the service path it bounds each submitted request.
    ``supervision`` (a ``repro.fleet.SupervisionPolicy``, or ``True``
    for the defaults) enables supervised dispatch on the parallel path:
    per-shard deadlines, hung/dead worker recovery, and poison-shard
    quarantine — see ``docs/fleet.md``.

    The returned list is a :class:`ScanDetections` carrying a
    :class:`ScanCoverage` (on the non-robust path it simply reports full
    coverage).
    """
    if timeout_s is not None and timeout_s <= 0:
        raise ValueError("timeout_s must be positive or None")
    deadline_at = (time.monotonic() + timeout_s
                   if timeout_s is not None else None)
    if isinstance(n_workers, str):
        if n_workers != "auto":
            raise ValueError(
                f"n_workers must be an int >= 1 or 'auto', got {n_workers!r}"
            )
    elif n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    if n_workers == "auto" or n_workers > 1:
        if service is not None:
            raise ValueError(
                "parallel scanning shards the local model across "
                "processes; scan through a service with n_workers=1"
            )
        from ..scanpar import parallel_scan_scene

        return parallel_scan_scene(
            model, scene, window=window, stride=stride,
            confidence_threshold=confidence_threshold,
            nms_radius=nms_radius, batch_size=batch_size, backend=backend,
            sanitize=sanitize, journal=journal, resume=resume,
            n_workers=n_workers, pool=pool,
            deadline_s=timeout_s, supervision=supervision,
        )

    n = scene.size
    origins = scan_origins(n, window, stride)

    if sanitize is not None or journal is not None:
        if service is not None:
            raise ValueError(
                "robust scanning (sanitize/journal) applies to the local "
                "path; sanitize service requests via the service's own "
                "validation instead"
            )
        return _scan_scene_robust(
            model, scene, origins, window=window, stride=stride,
            confidence_threshold=confidence_threshold,
            nms_radius=nms_radius, backend=backend,
            policy=sanitize, journal=journal, resume=resume,
            deadline_at=deadline_at,
        )
    if resume:
        raise ValueError("resume=True requires a journal")

    if service is not None:
        # per-origin strided views: zero-copy until the service's own
        # batcher stacks a micro-batch.  The scan deadline rides along
        # as each request's dispatch deadline, so a wedged service fails
        # the scan with a timeout instead of blocking it forever.
        from ..scanpar.tiling import TileSource
        from ..serve.service import RequestTimeoutError

        tiles = TileSource(scene.image, window, batch_size=batch_size)
        futures = [
            service.submit(np.asarray(tiles.tile(origin), dtype=np.float32),
                           timeout_s=timeout_s)
            for origin in origins
        ]
        results = []
        for future in futures:
            remaining = None
            if deadline_at is not None:
                remaining = max(deadline_at - time.monotonic(), 1e-3)
            try:
                results.append(future.result(timeout=remaining))
            except (TimeoutError, RequestTimeoutError) as exc:
                raise ScanDeadlineError(
                    f"scan deadline ({timeout_s:.1f}s) expired with "
                    f"{len(results)} of {len(origins)} tiles answered"
                ) from exc
        confidences = np.array([r.confidence for r in results])
        boxes = np.stack([r.box for r in results])
    else:
        batches = predict_windows(model, scene.image, origins, window,
                                  batch_size=batch_size, backend=backend)
        conf_parts: list[np.ndarray] = []
        box_parts: list[np.ndarray] = []
        scanned = 0
        while scanned < len(origins):
            # a batch runs when it is pulled: the deadline goes first
            if deadline_at is not None and time.monotonic() >= deadline_at:
                raise ScanDeadlineError(
                    f"scan deadline ({timeout_s:.1f}s) expired after "
                    f"{scanned} of {len(origins)} tiles"
                )
            conf, box = next(batches)
            scanned += len(conf)
            conf_parts.append(conf)
            box_parts.append(box)
        confidences = np.concatenate(conf_parts)
        boxes = np.concatenate(box_parts)
    detections = _detections_from_outputs(
        origins, confidences, boxes, window, confidence_threshold
    )
    coverage = ScanCoverage(tiles_total=len(origins),
                            tiles_scanned=len(origins))
    return ScanDetections(non_max_suppression(detections, radius=nms_radius),
                          coverage)


def _make_tile_runner(model: SPPNetDetector, backend: str):
    """(run, guarded_or_None): per-stack model execution for the robust
    path.  ``backend="engine"`` routes through the guarded engine→eager
    fallback; eager resolves :func:`predict` late so fault-injection
    monkeypatches apply inside worker processes too."""
    if backend == "engine":
        from ..robust.guard import GuardedEngine

        guarded = GuardedEngine(model)

        def run(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            conf, boxes, _ = guarded.predict_batch(stack)
            return conf, boxes
        return run, guarded

    def run(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return predict(model, stack, batch_size=len(stack), backend=backend)
    return run, None


def _scan_tiles_robust(
    run,
    image: np.ndarray,
    items: list[tuple[int, tuple[int, int]]],
    *,
    window: int,
    policy: "SanitizePolicy",
    confidence_threshold: float,
    journal: "ScanJournal | None",
    deadline_at: float | None = None,
) -> "list[TileRecord]":
    """Sanitize → predict → journal for a sequence of (index, origin)
    tiles.  The shared inner loop of the sequential robust scan and of
    each parallel shard worker.  ``deadline_at`` (monotonic) raises
    :class:`ScanDeadlineError` between tiles — everything journaled so
    far stays on disk for a later ``resume=True``."""
    from ..robust.journal import TileRecord
    from ..robust.sanitize import sanitize_chip

    fresh: list[TileRecord] = []
    for index, (r0, c0) in items:
        if deadline_at is not None and time.monotonic() >= deadline_at:
            raise ScanDeadlineError(
                f"scan deadline expired after {len(fresh)} of "
                f"{len(items)} remaining tiles; journaled tiles are "
                f"resumable"
            )
        tile = np.asarray(
            image[:, r0:r0 + window, c0:c0 + window], dtype=np.float32
        )
        result = sanitize_chip(tile, policy)
        if result.status == "quarantined":
            record = TileRecord(index, (r0, c0), "quarantined",
                                reason=result.report.summary())
        else:
            record = _run_tile(run, result, index, (r0, c0), window,
                               confidence_threshold)
        fresh.append(record)
        if journal is not None:
            journal.append(record)
    return fresh


def _coverage_from_records(records, *, tiles_total: int, tiles_resumed: int,
                           engine_fallbacks: int) -> ScanCoverage:
    """ScanCoverage from a full set of tile records (any order)."""
    return ScanCoverage(
        tiles_total=tiles_total,
        tiles_scanned=sum(1 for r in records
                          if r.status in ("ok", "repaired")),
        tiles_repaired=sum(1 for r in records if r.status == "repaired"),
        tiles_quarantined=sum(1 for r in records
                              if r.status == "quarantined"),
        tiles_resumed=tiles_resumed,
        engine_fallbacks=engine_fallbacks,
    )


def _scan_scene_robust(
    model: SPPNetDetector,
    scene: Scene,
    origins: list[tuple[int, int]],
    *,
    window: int,
    stride: int,
    confidence_threshold: float,
    nms_radius: float,
    backend: str,
    policy: "SanitizePolicy | None",
    journal: "ScanJournal | str | None",
    resume: bool,
    deadline_at: float | None = None,
) -> ScanDetections:
    """Per-tile sanitize → predict → journal loop behind scan_scene."""
    from ..robust.journal import ScanJournal, TileRecord
    from ..robust.sanitize import SanitizePolicy

    image = scene.image
    if policy is None:
        policy = SanitizePolicy.for_scene(bands=image.shape[0])

    jr: ScanJournal | None = None
    if journal is not None:
        jr = journal if isinstance(journal, ScanJournal) else ScanJournal(journal)
    meta = _scan_meta(scene.size, image.shape[0], window, stride,
                      confidence_threshold, backend)
    done: dict[int, TileRecord] = {}
    if jr is not None:
        if resume:
            done = jr.resume_or_start(meta)
        else:
            jr.start(meta)
    elif resume:
        raise ValueError("resume=True requires a journal")

    run, guarded = _make_tile_runner(model, backend)
    items = [(index, origin) for index, origin in enumerate(origins)
             if index not in done]
    fresh = _scan_tiles_robust(
        run, image, items, window=window, policy=policy,
        confidence_threshold=confidence_threshold, journal=jr,
        deadline_at=deadline_at,
    )

    records = sorted(list(done.values()) + fresh, key=lambda rec: rec.index)
    detections = [
        SceneDetection(row=row, col=col, height=h, width=w, confidence=conf)
        for rec in records for (row, col, h, w, conf) in rec.detections
    ]
    coverage = _coverage_from_records(
        records, tiles_total=len(origins), tiles_resumed=len(done),
        engine_fallbacks=(sum(guarded.fallback_by_reason.values())
                          if guarded is not None else 0),
    )
    return ScanDetections(non_max_suppression(detections, radius=nms_radius),
                          coverage)


def _run_tile(run, result, index: int, origin: tuple[int, int], window: int,
              confidence_threshold: float):
    """Model execution for one sanitized tile, with its fault boundary."""
    from ..robust.journal import TileRecord

    r0, c0 = origin
    reason = "; ".join(result.repairs) if result.repairs else None
    try:
        conf, box = run(result.chip[None])
    except Exception as exc:  # the fault boundary: poison stays in the tile
        return TileRecord(index, origin, "quarantined",
                          reason=f"model failure: {exc!r}")
    conf0 = float(np.asarray(conf).reshape(-1)[0])
    box0 = np.asarray(box, dtype=np.float64).reshape(-1)
    if not (math.isfinite(conf0) and np.isfinite(box0).all()):
        return TileRecord(index, origin, "quarantined",
                          reason="non_finite_output")
    detections: tuple = ()
    if conf0 >= confidence_threshold:
        cx, cy, w, h = (float(v) for v in box0[:4])
        detections = ((r0 + cy * window, c0 + cx * window,
                       h * window, w * window, conf0),)
    return TileRecord(index, origin, result.status, reason=reason,
                      detections=detections)


@dataclass(frozen=True)
class SceneDetectionScores:
    """Center-distance matching of detections vs ground truth.

    ``coverage`` records how much of the scene the scan behind these
    detections actually saw (robust scans only; None otherwise) — an F1
    from a scan that quarantined half its tiles is not comparable to one
    from a full scan, so the two facts travel together.
    """

    true_positives: int
    false_positives: int
    false_negatives: int
    mean_center_error: float
    coverage: ScanCoverage | None = None

    @property
    def precision(self) -> float:
        denom = self.true_positives + self.false_positives
        return self.true_positives / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.true_positives + self.false_negatives
        return self.true_positives / denom if denom else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0


def evaluate_scene_detections(
    detections: list[SceneDetection],
    ground_truth: list[Crossing],
    match_radius: float = 15.0,
    coverage: ScanCoverage | None = None,
) -> SceneDetectionScores:
    """Greedy one-to-one matching by center distance (confident first).

    ``mean_center_error`` is ``0.0`` when there are no matches: the JSON
    spec has no NaN literal, so serialized score artifacts must never
    contain one — check ``true_positives`` to distinguish "no matches"
    from "perfect centering".

    When ``detections`` came from :func:`scan_scene` its
    :class:`ScanCoverage` is adopted automatically; pass ``coverage``
    explicitly to override.
    """
    if coverage is None:
        coverage = getattr(detections, "coverage", None)
    unmatched = list(ground_truth)
    tp = 0
    errors: list[float] = []
    for det in sorted(detections, key=lambda d: -d.confidence):
        best_i, best_d = -1, match_radius
        for i, gt in enumerate(unmatched):
            d = np.hypot(det.row - gt.row, det.col - gt.col)
            if d <= best_d:
                best_i, best_d = i, d
        if best_i >= 0:
            tp += 1
            errors.append(best_d)
            unmatched.pop(best_i)
    return SceneDetectionScores(
        true_positives=tp,
        false_positives=len(detections) - tp,
        false_negatives=len(unmatched),
        mean_center_error=float(np.mean(errors)) if errors else 0.0,
        coverage=coverage,
    )
