"""scan_robust: ``scan_scene(..., sanitize=, journal=)`` over a scene
with 10% of its tiles corrupted.

Uses the same engine *differently*: per-tile batch-1 programs behind
``GuardedEngine``, ``sanitize_chip`` on every tile, and an fsynced
journal append per tile (writes beside reads).  A batch-20 win that
costs batch-1, or a durable-log refactor, shows here and nowhere else.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import checks, layers
from .harness import CONF_THRESHOLD, NMS_RADIUS, SCAN_KW, STRIDE, WINDOW, Bench, \
    sample_indices
from .spans import Tracer

CORRUPT_FRACTION = 0.1


def compose_robust(model, scene, origins, policy, path, tracer, pass_id):
    """The robust scan composed from public calls, one span per layer
    per tile: tile copy -> sanitize_chip -> GuardedEngine.predict_batch
    -> decode -> ScanJournal.append, then NMS."""
    from repro.detect import ScanCoverage, ScanDetections, SceneDetection, \
        non_max_suppression
    from repro.robust import GuardedEngine, ScanJournal, TileRecord, sanitize_chip
    from repro.scanpar import TileSource

    span = tracer.span
    source = TileSource(scene.image, WINDOW)
    with span("pass", pass_id, ops=len(origins)):
        with span("robust.guard.setup"):
            guarded = GuardedEngine(model)
        with span("robust.journal.start"):
            journal = ScanJournal(path)
            journal.start({"scene_size": scene.size, "composed": True})
        records = []
        for index, (r0, c0) in enumerate(origins):
            with span("scanpar.tiling.tile"):
                tile = np.asarray(source.tile((r0, c0)), dtype=np.float32)
            with span("robust.sanitize"):
                result = sanitize_chip(tile, policy)
            if result.status == "quarantined":
                record = TileRecord(index, (r0, c0), "quarantined",
                                    reason=result.report.summary())
            else:
                with span("robust.guard.predict"):
                    conf, box, _ = guarded.predict_batch(result.chip[None])
                with span("detect.scan.decode"):
                    conf0 = float(np.asarray(conf).reshape(-1)[0])
                    cx, cy, w, h = (float(v) for v in np.asarray(
                        box, dtype=np.float64).reshape(-1)[:4])
                    found = ()
                    if conf0 >= CONF_THRESHOLD:
                        found = ((r0 + cy * WINDOW, c0 + cx * WINDOW,
                                  h * WINDOW, w * WINDOW, conf0),)
                    record = TileRecord(
                        index, (r0, c0), result.status, detections=found,
                        reason="; ".join(result.repairs) or None)
            with span("robust.journal.append"):
                journal.append(record)
            records.append(record)
        with span("detect.scan.nms"):
            kept = non_max_suppression(
                [SceneDetection(row=r, col=c, height=h, width=w, confidence=p)
                 for rec in records for (r, c, h, w, p) in rec.detections],
                radius=NMS_RADIUS)
    status = [rec.status for rec in records]
    return ScanDetections(kept, ScanCoverage(
        tiles_total=len(origins),
        tiles_scanned=len(origins) - status.count("quarantined"),
        tiles_repaired=status.count("repaired"),
        tiles_quarantined=status.count("quarantined"),
        engine_fallbacks=sum(guarded.fallback_by_reason.values())))


def run(bench: Bench) -> None:
    from repro import faults
    from repro.detect import scan_origins, scan_scene
    from repro.robust import SanitizePolicy, ScanJournal, sanitize_chip
    from repro.scanpar import TileSource

    plan = bench.plan
    origins = scan_origins(plan.scene_size, WINDOW, STRIDE)
    model = bench.build_model()
    compiled = bench.compile_engine(model, [1])
    bench.end_setup()

    clean = bench.make_scene()
    with bench.phase("gen.scene_s"):
        image, applied = faults.corrupt_scene(
            clean.image, origins, WINDOW, fraction=CORRUPT_FRACTION,
            seed=bench.seed)
        scene = replace(clean, image=image)
    policy = SanitizePolicy.for_scene(bands=image.shape[0])
    bench.info["corrupted_tiles"] = len(applied)

    journals = []

    def scan():
        # every pass writes a fresh journal; only the last one is kept
        if journals:
            journals[-1].unlink(missing_ok=True)
        journals.append(bench.tmp / f"journal_{len(journals)}.jsonl")
        return scan_scene(model, scene, n_workers=1, sanitize=policy,
                          journal=str(journals[-1]), **SCAN_KW)

    with bench.phase("warmup_s"):
        for _ in range(plan.warmup):
            scan()

    if bench.trace:
        self_s, results = layers.traced_passes(
            bench, Tracer(), scan,
            lambda tr, k: compose_robust(model, scene, origins, policy,
                                         bench.tmp / "composed.jsonl", tr, k),
            checks.same_scan, len(origins))
        for metric, name in (
                ("scanpar.tiling.tile_ms_per_tile", "scanpar.tiling.tile"),
                ("robust.sanitize.ms_per_tile", "robust.sanitize"),
                ("robust.journal.append_ms_per_tile", "robust.journal.append")):
            bench.put(metric, 1e3 * self_s[name] / len(origins))
        bench.put("detect.scan.nms_ms_per_scene",
                  1e3 * self_s["detect.scan.nms"])
        bench.put("scanpar.tiling.buffer_mb",
                  TileSource(image, WINDOW).tile_buffer_bytes / 2**20)
        # the bare engine under the guard, on clean tiles of this scene
        source = TileSource(clean.image, WINDOW)
        layers.batch1_metrics(
            bench, model, compiled,
            [source.tile(origins[i]) for i in sample_indices(
                len(origins), plan.probe_tiles, bench.seed)],
            fallbacks=sum(r.coverage.engine_fallbacks for r in results))
    else:
        results = bench.timed_passes(scan, len(origins))

    with bench.phase("verify_s"):
        # the tiles the seeded corruption leaves unrepairable, found by
        # asking the sanitizer about every tile of the corrupted scene
        expected = {
            i for i, (r, c) in enumerate(origins)
            if sanitize_chip(np.asarray(image[:, r:r + WINDOW, c:c + WINDOW],
                                        dtype=np.float32),
                             policy).status == "quarantined"}
        if bench.sabotage == "quarantine":
            expected ^= {min(expected, default=0)}
        done = [r for r in results if r is not None]
        bench.failed += sum(
            c.tiles_total - c.tiles_scanned - c.tiles_quarantined
            + abs(c.tiles_quarantined - len(expected))
            for c in (r.coverage for r in done))
        bench.check("scanned + quarantined == total on every pass", all(
            r.coverage.tiles_scanned + r.coverage.tiles_quarantined
            == len(origins) for r in done) and len(done) == len(results))
        _, records = ScanJournal(journals[-1]).load()
        quarantined = {rec.index for rec in records
                       if rec.status == "quarantined"}
        bench.check("quarantined tiles are exactly the unrepairable ones",
                    quarantined == expected,
                    f"{len(quarantined)} quarantined, {len(expected)} expected, "
                    f"{len(applied)} corrupted")
        bench.check("zero GuardedEngine fallbacks",
                    all(r.coverage.engine_fallbacks == 0 for r in done))
        bench.check("every pass returns the same detections",
                    all(checks.same_scan(r, done[0]) for r in done))
        checks.check_decode_share(
            bench, sum(1 for rec in records if rec.detections), len(origins))
        resumed = scan_scene(model, scene, n_workers=1, sanitize=policy,
                             journal=str(journals[-1]), resume=True, **SCAN_KW)
        bench.check("resume=True over the last journal reproduces the scan",
                    list(resumed) == list(done[-1])
                    and resumed.coverage.tiles_resumed == len(origins),
                    f"{resumed.coverage.tiles_resumed} tiles resumed")
    coverage = done[-1].coverage
    bench.info["detections"] = len(done[-1])
    bench.info["coverage"] = {"repaired": coverage.tiles_repaired,
                              "quarantined": coverage.tiles_quarantined}
    if bench.trace:
        bench.put("detect.scan.detections", len(done[-1]))
        bench.put("robust.sanitize.repaired", coverage.tiles_repaired)
        bench.put("robust.sanitize.quarantined", coverage.tiles_quarantined)
    bench.collect_info(compiled)
