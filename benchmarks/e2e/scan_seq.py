"""scan_seq: ``scan_scene(model, scene, n_workers=1)`` on the engine.

The floor every other path is compared with: almost all of the wall is
batch-20 engine programs and ``scanpar`` does nothing, so a kernel,
fusion, autotune or schedule change shows here undiluted and an IPC
change must show nothing.
"""

from __future__ import annotations

from . import checks, layers
from .harness import BATCH, SCAN_KW, STRIDE, WINDOW, Bench
from .spans import Tracer


def run(bench: Bench) -> None:
    from repro.detect import scan_origins, scan_scene
    from repro.scanpar import TileSource

    plan = bench.plan
    origins = scan_origins(plan.scene_size, WINDOW, STRIDE)
    model = bench.build_model()
    compiled = bench.compile_engine(model, bench.scan_batch_sizes())
    bench.end_setup()

    scene = bench.make_scene()

    def scan():
        return scan_scene(model, scene, n_workers=1, **SCAN_KW)

    # warm-up pass 1 is the benchmark's own composition of the same scan:
    # it warms the engine programs and is the reference every timed pass
    # must reproduce
    with bench.phase("warmup_s"):
        kept, decoded, confidences, boxes = layers.compose_scan(
            compiled, scene.image, origins)
        for _ in range(plan.warmup - 1):
            scan()

    if bench.trace:
        tracer = Tracer()
        self_s, results = layers.traced_passes(
            bench, tracer, scan,
            lambda tr, k: layers.compose_scan(compiled, scene.image, origins,
                                              tr, k)[0],
            lambda plain, spanned: list(plain) == spanned, len(origins))
        source = TileSource(scene.image, WINDOW, batch_size=BATCH)
        layers.engine_b20_metrics(bench, compiled, tracer)
        layers.engine_b20_shares(bench, compiled,
                                 source.gather(origins[:BATCH]).copy())
        bench.put("scanpar.tiling.gather_ms_per_tile",
                  1e3 * self_s["scanpar.tiling.gather"] / len(origins))
        bench.put("scanpar.tiling.buffer_mb", source.tile_buffer_bytes / 2**20)
        bench.put("detect.scan.nms_ms_per_scene",
                  1e3 * self_s["detect.scan.nms"])
        # pass wall - gather - engine - NMS: decode plus glue
        bench.put("detect.scan.post_ms_per_scene", 1e3 * sum(
            v for k, v in self_s.items()
            if k not in ("scanpar.tiling.gather", "engine.predict",
                         "detect.scan.nms")))
        bench.put("detect.scan.detections", len(kept))
    else:
        results = bench.timed_passes(scan, len(origins))

    with bench.phase("verify_s"):
        bench.failed += sum(r.coverage.tiles_total - r.coverage.tiles_scanned
                            for r in results if r is not None)
        checks.check_decode_share(bench, len(decoded), len(origins))
        bench.check("every timed pass returns the composition's detections",
                    all(r is not None and list(r) == kept for r in results),
                    f"{len(results)} passes, {len(kept)} detections")
        checks.check_against_eager(bench, model, scene.image, origins,
                                   confidences, boxes, kept)
    bench.info["detections"] = len(kept)
    bench.collect_info(compiled)
