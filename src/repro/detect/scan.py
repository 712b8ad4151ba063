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

Every scan runs on the compiled engine.  The batched scan pulls its
model outputs from :meth:`repro.engine.CompiledModel.predict_windows`:
SPP-Net's own economy, where the conv layers overlapping windows share
run once per scene row chunk and each window only crops their feature
map (``docs/engine.md``, "Windows of one raster"), so no window stack
is ever materialized and the result is bitwise the per-window one.

Production scenes are not pristine: tiles arrive with NaN pixels, nodata
holes, dropped bands, and saturation (see :mod:`repro.robust`).  Passing
``sanitize=`` and/or ``journal=`` swaps the batched stage for the
*robust* one.  The scene is repaired once, cell by cell
(:func:`repro.robust.sanitize_scene`), every tile gets its own verdict
(ok, repaired or quarantined), and the tiles not quarantined run as the
batched scan over the repaired raster, sharing its feature maps, behind
the guard's output check and a per-tile fault boundary.  Outcomes stream
to an append-only JSONL scan journal, and ``resume=True`` replays a
crashed scan's journaled tiles verbatim so the finished result is
identical to an uninterrupted run.  The journal commits once per
micro-batch — one fsync per ``batch_size`` tiles — so a hard kill loses
at most the micro-batch in flight and a resume re-runs exactly it.

There is one pipeline (``docs/scanning.md``): :func:`scan_scene` plans
the scan, :func:`scan_span` runs a span of its tiles through either
stage, and the only thing ``n_workers`` changes is where ``scan_span``
runs — once, inline, over the whole scan, or once per batch-aligned
shard inside :mod:`repro.scanpar` pool workers, with a byte-identical
merge.
"""

from __future__ import annotations

import math
import numbers
import time
import warnings
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from ..blas import blas_info
from .sppnet import SPPNetDetector

if TYPE_CHECKING:
    from ..geo.crossings import Crossing
    from ..geo.scene import Scene
    from ..robust.journal import ScanJournal, TileRecord
    from ..robust.sanitize import SanitizePolicy

__all__ = ["SceneDetection", "SceneDetectionScores", "ScanCoverage",
           "ScanDetections", "ScanDeadlineError", "ScanSpec", "scan_origins",
           "non_max_suppression", "scan_scene", "evaluate_scene_detections"]


class ScanDeadlineError(TimeoutError):
    """A scan's wall-clock deadline expired before it finished.

    Raised inline before a micro-batch would start late, and by the
    pool's dispatch loop (``repro.scanpar.WorkerPool.run``) when a
    run-level deadline (``scan_scene(timeout_s=...)``, or a fleet job's
    ``"timeout_s"``) passes with shards still in flight.  Journaled
    scans lose nothing: the tiles finished before the deadline are on
    disk and a later ``resume=True`` scan picks up from them.
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
class ScanSpec:
    """The five values that define a scan's result, checked once: an
    invalid one raises :class:`ValueError` naming its field."""

    window: int = 100
    stride: int = 50
    confidence_threshold: float = 0.7
    nms_radius: float = 20.0
    batch_size: int = 20

    def __post_init__(self) -> None:
        for name in ("window", "stride", "batch_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be >= 1 (an int), got {value!r}")
        for name, need in (("confidence_threshold", "finite"),
                           ("nms_radius", "positive and finite")):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value) or name == "nms_radius" and value <= 0):
                raise ValueError(f"{name} must be {need}, got {value!r}")

    @classmethod
    def from_json(cls, payload: dict) -> ScanSpec:
        """A spec from a job payload's dict: a missing key takes its
        default, an unknown one is refused."""
        allowed = [f.name for f in fields(cls)]
        unknown = sorted(set(payload) - set(allowed))
        if unknown:
            raise ValueError(f"unsupported scan parameters {unknown}; allowed: {allowed}")
        return cls(**payload)

    def origins(self, size: int) -> list[tuple[int, int]]:
        return scan_origins(size, self.window, self.stride)

    def journal_header(self, scene_size: int, bands: int) -> dict:
        """The scan journal's header: what moves a journaled record's
        bits, so a journal resumes under any ``n_workers``, ``batch_size``
        or ``nms_radius`` but not under another ``backend``, repair grid
        (``repair_cell``, the side of the cells
        :func:`~repro.robust.sanitize_scene` repairs) or BLAS."""
        from ..robust.sanitize import repair_cell

        return {
            "scene_size": int(scene_size),
            "bands": int(bands),
            "window": int(self.window),
            "stride": int(self.stride),
            "confidence_threshold": float(self.confidence_threshold),
            "backend": "engine",
            "repair_cell": repair_cell(self.window),
            "blas": {k: v for k, v in blas_info().items() if k != "why"},
        }


@dataclass(frozen=True)
class ScanCoverage:
    """How much of a scene a (robust) scan actually saw.

    tiles_scanned counts tiles that produced a model answer (clean or
    repaired); quarantined tiles were skipped by design, never silently.
    engine_fallbacks counts the engine faults the robust stage's guard
    raised (the name is the frozen benchmark harness's, ROADMAP item 1).
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
    spec: ScanSpec,
) -> list[SceneDetection]:
    """Threshold + scene-coordinate mapping of raw model outputs.

    One shared implementation for the sequential and sharded scans: the
    parallel merge feeds concatenated per-shard outputs through this
    exact code, so thresholding and coordinate math cannot drift between
    the two paths.
    """
    window = spec.window
    detections: list[SceneDetection] = []
    for (r0, c0), conf, box in zip(origins, confidences, boxes):
        if not conf >= spec.confidence_threshold:  # also skips NaN confidence
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


def _require_engine(backend: str, what: str) -> None:
    """``backend=`` keeps one legal value while the frozen benchmark
    harness still passes it."""
    if backend != "engine":
        raise ValueError(f"backend={backend!r}: {what} runs on the compiled "
                         "engine only; the keyword goes with ROADMAP item 1")


def _check_timeout(timeout_s) -> None:
    """A deadline bounds the wall clock, not the result: no spec field."""
    if timeout_s is not None and (isinstance(timeout_s, bool)
                                  or not isinstance(timeout_s, numbers.Real)
                                  or not timeout_s > 0):
        raise ValueError(f"timeout_s must be positive or None, got {timeout_s!r}")


def scan_scene(
    model: SPPNetDetector,
    scene: Scene,
    window: int = 100,
    stride: int = 50,
    confidence_threshold: float = 0.7,
    nms_radius: float = 20.0,
    batch_size: int = 20,
    backend: str = "engine",
    sanitize: "SanitizePolicy | None" = None,
    journal: "ScanJournal | str | None" = None,
    resume: bool = False,
    n_workers: int | str = 1,
    pool=None,
    timeout_s: float | None = None,
) -> ScanDetections:
    """Detect crossings across a whole scene.

    Overlapping windows (default 50% overlap) put every crossing near
    the center of at least one window; each window's box regression is
    mapped back to scene coordinates before NMS.  The confidence
    threshold defaults to 0.7 like the related-work faster-R-CNN
    baseline.  The result is a :class:`ScanDetections`: a list that also
    carries the scan's :class:`ScanCoverage`.  The first five keywords
    make its :class:`ScanSpec`, checked before any tile runs.

    What a caller chooses (``docs/scanning.md``, "One pipeline"):

    * ``backend``: ``"engine"`` (the compiled engine, which computes
      what overlapping windows share once per scene), its only value.
    * ``sanitize`` (a :class:`~repro.robust.SanitizePolicy`) and/or
      ``journal`` (a path or :class:`~repro.robust.ScanJournal`) select
      the *robust* stage.  The scene is repaired once on the grid of
      ``ceil(window / 2)``-px cells (:func:`~repro.robust.sanitize_scene`)
      and each tile gets its own verdict; the tiles not quarantined run
      as the batched scan over the repaired raster, in micro-batches of
      ``batch_size`` whose rows are bitwise each tile's answer alone,
      behind a per-tile fault boundary (a poisoned tile is quarantined,
      never fatal), journaled with one durable commit per micro-batch
      (a hard kill loses at most the one in flight); ``resume=True``
      replays a crashed scan's journaled tiles verbatim, so the result
      equals the uninterrupted one.  A tile whose origin lies on the
      cell grid (every tile when ``stride`` is a multiple of the cell
      and ``window`` is even) is exactly
      :func:`~repro.robust.sanitize_chip` of its own pixels; any other
      tile (a scene-edge origin such as 477 on a 577 px scene, a stride
      off the grid, an odd window) reads the repaired raster's crop.
      A tile of whole cells takes its verdict from the damage
      statistics ``sanitize_scene`` kept for its cells, not its pixels.
      Without them tiles run in micro-batches of ``batch_size``.
    * ``n_workers``: 1 runs the scan in this process; more (or
      ``"auto"``, which picks from CPU affinity and scene size and may
      pick 1) shards it over a persistent warm
      :class:`~repro.scanpar.WorkerPool` (``pool``, default the shared
      one), byte-identical to ``n_workers=1``.  The pool's
      :class:`~repro.scanpar.SupervisionPolicy` recovers hung, dead and
      poisoned workers (``docs/fleet.md``), and a pooled scan carries
      the dispatch's report as ``.supervision``.
    * ``timeout_s`` bounds the wall clock: past it the scan raises
      :class:`ScanDeadlineError` (journaled tiles stay resumable).
    """
    _require_engine(backend, "scan_scene")
    spec = ScanSpec(window, stride, confidence_threshold, nms_radius, batch_size)
    _check_timeout(timeout_s)
    if n_workers != "auto" and (isinstance(n_workers, str) or n_workers < 1):
        raise ValueError(
            f"n_workers must be an int >= 1 or 'auto', got {n_workers!r}")
    if resume and journal is None:
        raise ValueError("resume=True requires a journal")
    deadline_at = (time.monotonic() + timeout_s
                   if timeout_s is not None else None)
    image = scene.image
    origins = spec.origins(scene.size)

    shards: list = []
    if n_workers != 1:
        from ..scanpar import partition_origins, resolve_n_workers

        shards = partition_origins(len(origins), resolve_n_workers(
            n_workers, n_origins=len(origins), batch_size=batch_size,
            pool_warm=True if pool is not None else None), batch_size)
        if len(shards) < 2:
            shards = []
            if n_workers != "auto":   # "auto" picking one is a verdict
                warnings.warn(
                    f"n_workers={n_workers} requested, but {len(origins)} "
                    f"origins at batch_size={batch_size} make fewer than "
                    f"two batch-aligned shards: scanning inline",
                    RuntimeWarning, stacklevel=2)

    policy, jr, done, verdicts = sanitize, None, {}, None
    if sanitize is not None or journal is not None:
        from ..robust.journal import ScanJournal
        from ..robust.sanitize import SanitizePolicy, sanitize_scene

        if policy is None:
            policy = SanitizePolicy.for_scene(bands=image.shape[0])
        if policy.expected_shape is not None \
                and tuple(policy.expected_shape) != (window, window):
            raise ValueError(
                f"sanitize.expected_shape={policy.expected_shape} must be "
                f"the window's ({window}, {window}): a scan's tiles are "
                "crops of one repaired raster")
        if journal is not None:
            header = spec.journal_header(scene.size, image.shape[0])
            jr = (journal if isinstance(journal, ScanJournal)
                  else ScanJournal(journal))
            if resume:
                done = jr.resume_or_start(header)
            else:
                jr.start(header)

        # the scene repaired and its cells' damage counted once; pooled
        # scans ship this raster
        repair = sanitize_scene(image, policy, window=spec.window)
        image = repair.image
        verdicts = {}
        for index, (r0, c0) in enumerate(origins):
            if index in done:
                continue
            result = repair.tile(r0, c0, spec.window)
            if result.status == "quarantined":
                verdicts[index] = (result.status, result.report.summary())
            elif result.status == "repaired":
                verdicts[index] = (result.status,
                                   "; ".join(result.repairs) or None)

    # what every span of this scan runs with, wherever it runs
    stage = dict(verdicts=verdicts, skip=frozenset(done), journal=jr,
                 deadline_at=deadline_at)
    if not shards:
        payloads = [scan_span(model, image, origins, (0, len(origins)), spec,
                              **stage)]
    else:
        from ..scanpar.parallel import run_shards

        payloads = run_shards(model, image, shards, spec, pool=pool,
                              **stage)
        if jr is not None:
            # fold every shard journal into the one resumable main
            # journal, then drop the shard files
            jr.absorb_shards(header)

    # shard order == origin order: concatenation restores the sequence
    # the inline scan feeds to threshold + NMS
    if verdicts is None:
        detections = _detections_from_outputs(
            origins, np.concatenate([p["confidences"] for p in payloads]),
            np.concatenate([p["boxes"] for p in payloads]), spec)
        coverage = ScanCoverage(tiles_total=len(origins),
                                tiles_scanned=len(origins))
    else:
        records = sorted(
            [*done.values(), *(r for p in payloads for r in p["records"])],
            key=lambda rec: rec.index)
        detections = [
            SceneDetection(row=row, col=col, height=h, width=w,
                           confidence=conf)
            for rec in records for (row, col, h, w, conf) in rec.detections
        ]
        statuses = [rec.status for rec in records]
        coverage = ScanCoverage(
            tiles_total=len(origins),
            tiles_scanned=statuses.count("ok") + statuses.count("repaired"),
            tiles_repaired=statuses.count("repaired"),
            tiles_quarantined=statuses.count("quarantined"),
            tiles_resumed=len(done),
            engine_fallbacks=sum(sum(p["fallbacks"].values())
                                 for p in payloads),
        )
    result = ScanDetections(
        non_max_suppression(detections, radius=spec.nms_radius), coverage)
    if shards:
        result.supervision = payloads.supervision
    return result


def scan_span(
    model: SPPNetDetector,
    image: np.ndarray,
    origins: list[tuple[int, int]],
    span: tuple[int, int],
    spec: ScanSpec,
    *,
    verdicts: dict[int, tuple[str, str | None]] | None = None,
    skip: frozenset = frozenset(),
    journal: "ScanJournal | None" = None,
    deadline_at: float | None = None,
) -> dict:
    """The tile pipeline: run ``origins[start:stop]`` of a ``spec`` scan
    over ``image`` and return the span's payload.

    :func:`scan_scene` calls it once over the whole scan (inline) or
    once per shard inside pool workers (``scanpar.worker.run_shard``):
    the same code either way.  ``origins`` is always the *whole* scan's,
    so a span shares feature maps on the scan's own chunk grid.

    Both stages pull micro-batches of ``spec.batch_size`` from
    ``CompiledModel.predict_windows`` over ``image``.  Without
    ``verdicts`` (the batched stage) the payload is ``{"confidences",
    "boxes"}`` (raw model outputs, in origin order).  With them (the
    robust stage) ``image`` is the repaired raster and ``verdicts`` maps
    each tile that is not ``"ok"`` to ``(status, reason)``: the tiles
    not in ``skip`` (already journaled) and not quarantined run through
    :meth:`~repro.robust.GuardedEngine.predict_windows`, every row is
    decoded into its tile's record (:func:`_tile_record`), and each
    micro-batch of ``spec.batch_size`` tiles, in index order, is written
    with one ``journal.extend`` (one fsync); the payload is
    ``{"records", "fallbacks"}``, the second the guard's engine faults by
    reason.  ``deadline_at`` (monotonic) is checked before each
    micro-batch runs and raises :class:`ScanDeadlineError` with every
    finished one on disk.
    """
    start, stop = span

    def check_deadline(finished: int, total: int) -> None:
        if deadline_at is not None and time.monotonic() >= deadline_at:
            raise ScanDeadlineError(
                f"scan deadline expired after {finished} of {total} tiles"
                + ("; journaled tiles are resumable"
                   if journal is not None else ""))

    if verdicts is None:
        from ..engine import compiled_for

        model.eval()
        batches = compiled_for(model).predict_windows(
            image, origins, spec.window, batch_size=spec.batch_size, span=span)
        parts: list[tuple[np.ndarray, np.ndarray]] = []
        scanned = 0
        while scanned < stop - start:
            # a batch runs when it is pulled: the deadline goes first
            check_deadline(scanned, stop - start)
            parts.append(next(batches))
            scanned += len(parts[-1][0])
        return {"confidences": np.concatenate([conf for conf, _ in parts]),
                "boxes": np.concatenate([box for _, box in parts])}

    from ..robust.guard import GuardedEngine
    from ..robust.journal import TileRecord

    guarded = GuardedEngine(model)
    todo = [index for index in range(start, stop) if index not in skip]
    live = [index for index in todo
            if verdicts.get(index, ("ok",))[0] != "quarantined"]
    rows = _live_rows(guarded, image, origins, live, spec)
    records: list[TileRecord] = []
    committed = 0

    def commit() -> None:
        """One durable append (one fsync) for the records finished
        since the last one."""
        nonlocal committed
        group, committed = records[committed:], len(records)
        if journal is not None:
            # a group whose write fails is not written again on top of
            # a possibly torn tail: a resume repairs the tail, re-runs it
            journal.extend(group)

    try:
        for at in range(0, len(todo), spec.batch_size):
            check_deadline(len(records), len(todo))
            group = []
            for index in todo[at:at + spec.batch_size]:
                status, reason = verdicts.get(index, ("ok", None))
                if status == "quarantined":
                    group.append(TileRecord(index, origins[index], status,
                                            reason=reason))
                    continue
                answer = next(rows)
                if isinstance(answer, Exception):
                    group.append(TileRecord(
                        index, origins[index], "quarantined",
                        reason=f"model failure: {answer!r}"))
                else:
                    group.append(_tile_record(status, reason, index,
                                              origins[index], *answer, spec))
            records += group
            commit()
    finally:
        # an interrupt between a micro-batch's records and its commit
        # still leaves the micro-batch on disk
        commit()
    return {"records": records, "fallbacks": guarded.fallback_by_reason}


def _live_rows(guarded, image: np.ndarray, origins: list[tuple[int, int]],
               live: list[int], spec: ScanSpec):
    """The answer of each tile of ``live``, in order: its
    ``(confidence, box)`` from one
    :meth:`~repro.robust.GuardedEngine.predict_windows` generator over
    the repaired raster, pulled a micro-batch at a time as the tiles are
    asked for.  A head runs whole 4-row blocks
    (``engine.compiled.HEAD_ROWS``) and ``predict_windows`` is bitwise
    ``predict``, so a row is the bytes the tile's own
    ``predict_batch(crop[None])`` gives.

    The fault boundary stays per tile: if a micro-batch raises (the
    engine's own error, or the guard's :class:`~repro.robust.EngineError`
    for a non-finite or wrong-shape answer), each of its tiles re-runs
    alone through ``guarded.predict_batch``, and a tile whose own call
    raises an error no retry can change (:func:`repro.retry.retryable`)
    is answered with that error and quarantined, so poison stays in its
    tile.  A retryable error propagates and is journaled nowhere: the
    shard's or the job's retry runs the tile again.  The micro-batches
    after a fault come from a new generator over the tiles left (the
    same plan, a cold carry ring)."""
    from ..retry import retryable

    window = spec.window
    answers = None
    for at in range(0, len(live), spec.batch_size):
        batch = live[at:at + spec.batch_size]
        if answers is None:
            answers = guarded.predict_windows(
                image, origins, window, batch_size=spec.batch_size,
                span=live[at:])
        try:
            conf, box = next(answers)
        except Exception:
            answers = None      # the fault boundary narrows to each tile
        else:
            yield from zip(conf, box)
            continue
        for index in batch:
            r0, c0 = origins[index]
            try:
                conf, box, _ = guarded.predict_batch(
                    image[None, :, r0:r0 + window, c0:c0 + window])
            except Exception as exc:  # poison stays in the tile
                if retryable(exc):
                    raise       # transient: the shard's or job's retry runs it
                yield exc
            else:
                yield conf[0], box[0]


def _tile_record(status: str, reason: str | None, index: int,
                 origin: tuple[int, int], conf, box,
                 spec: ScanSpec) -> TileRecord:
    """Decode one tile's model row (finite: the guard checked it) into
    its record, in float64."""
    from ..robust.journal import TileRecord

    r0, c0 = origin
    conf0 = float(np.asarray(conf).reshape(-1)[0])
    box0 = np.asarray(box, dtype=np.float64).reshape(-1)
    detections: tuple = ()
    if conf0 >= spec.confidence_threshold:
        cx, cy, w, h = (float(v) for v in box0[:4])
        detections = ((r0 + cy * spec.window, c0 + cx * spec.window,
                       h * spec.window, w * spec.window, conf0),)
    return TileRecord(index, origin, status, reason=reason,
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
