"""The benchmark's own composition of the sequential scan, the traced-run
driver, and the few per-layer probes a span cannot give.

Everything here times calls into each layer's *public* functions from
outside.  A composition must return exactly what the entry point it
mirrors returns, which is checked on every traced run, so the spans
describe the real pipeline and not a look-alike.  Wherever a layer's
work happens inside a composition, its metric is read from the spans of
that work; a probe exists only for a call the composition does not make
(the bare engine under ``GuardedEngine``, kernel-category shares).
"""

from __future__ import annotations

import time

import numpy as np

from . import host, stats
from .spans import NO_TRACE
from .harness import BATCH, CONF_THRESHOLD, NMS_RADIUS, WINDOW, Bench

__all__ = ["decode", "compose_scan", "traced_passes", "paired_gap_ms",
           "engine_b20_metrics", "engine_b20_shares", "batch1_metrics"]


def decode(origins, confidences, boxes):
    """Threshold + scene-coordinate mapping of raw model outputs: the
    scan's decode step, written against the public ``SceneDetection``.
    The arithmetic (operand order and dtypes) is the scan's, so the
    detections compare equal field by field."""
    from repro.detect import SceneDetection

    detections = []
    for (r0, c0), conf, box in zip(origins, confidences, boxes):
        if not conf >= CONF_THRESHOLD:
            continue
        cx, cy, w, h = box
        detections.append(SceneDetection(
            row=r0 + cy * WINDOW, col=c0 + cx * WINDOW,
            height=h * WINDOW, width=w * WINDOW, confidence=float(conf)))
    return detections


def compose_scan(compiled, image, origins, tracer=NO_TRACE, pass_id=None):
    """scan_origins -> TileSource.batches -> CompiledModel.predict ->
    decode -> non_max_suppression, each step in a span when traced.

    Returns ``(detections, decoded, confidences, boxes)``: the NMS'd
    detections, the pre-NMS list, and the raw per-tile outputs.
    """
    from repro.detect import non_max_suppression
    from repro.scanpar import TileSource

    span = tracer.span
    with span("pass", pass_id, ops=len(origins)):
        conf_parts, box_parts = [], []
        with span("scanpar.tiling.setup"):
            batches = iter(TileSource(image, WINDOW,
                                      batch_size=BATCH).batches(origins))
        while True:
            with span("scanpar.tiling.gather"):
                item = next(batches, None)
            if item is None:
                break
            with span("engine.predict", ops=len(item[1])):
                conf, box = compiled.predict(item[1], batch_size=len(item[1]))
            conf_parts.append(conf)
            box_parts.append(box)
        with span("detect.scan.decode"):
            confidences = np.concatenate(conf_parts)
            boxes = np.concatenate(box_parts)
            decoded = decode(origins, confidences, boxes)
        with span("detect.scan.nms"):
            kept = non_max_suppression(decoded, radius=NMS_RADIUS)
    return kept, decoded, confidences, boxes


# -- the traced run ------------------------------------------------------------

def traced_passes(bench: Bench, tracer, untraced, traced, same,
                  ops: int) -> tuple[dict, list]:
    """Alternate ``untraced()`` (the public entry point) and
    ``traced(tracer, pass_id)`` (the benchmark's composition of the same
    work, ``ops`` tiles or requests) ``plan.trace_passes`` times each,
    check ``same(a, b)`` on every pair, and put the layer metrics every
    workload has.  Alternating puts machine drift on both sides of
    ``trace.overhead_frac`` equally.

    Returns ``(median self seconds of each span name per traced pass,
    the untraced results)``.
    """
    from repro.engine import sched

    traced_walls, untraced_walls, gemm, plains = [], [], [], []
    agree = True
    for pass_id in range(bench.plan.trace_passes):
        start = time.perf_counter()
        plains.append(untraced())
        untraced_walls.append(time.perf_counter() - start)
        gemm.append(host.ref_gemm_ms())
        bench.probe.sample()
        start = time.perf_counter()
        spanned = traced(tracer, pass_id)
        traced_walls.append(time.perf_counter() - start)
        gemm.append(host.ref_gemm_ms())
        bench.probe.sample()
        agree = agree and same(plains[-1], spanned)
    bench.check("traced composition returns the entry point's result", agree)
    bench.tracer = tracer
    bench.attempted = 2 * bench.plan.trace_passes * ops

    per_pass = tracer.self_times("pass")
    names = sorted({name for acc in per_pass for name in acc})
    self_s = {name: stats.median([acc.get(name, 0.0) for acc in per_pass])
              for name in names}
    bench.put("trace.residual_frac", stats.median(
        [acc.get("pass", 0.0) / wall
         for acc, wall in zip(per_pass, traced_walls)]))
    bench.put("trace.overhead_frac", stats.median(
        [(t - u) / u for t, u in zip(traced_walls, untraced_walls)]))
    bench.put("host.ref_gemm_ms", stats.median(gemm))
    bench.put("host.ref_conv_ms", stats.median(bench.probe.samples_ms))
    bench.put("host.steal_frac", bench.steal.fraction())
    bench.put("gen.scene_s", bench.timers["gen.scene_s"])
    bench.put("engine.compile_s", bench.timers["engine.compile_s"])
    solver = sched.stats()
    bench.put("engine.sched.solve_ms", solver["solve_ms"])
    bench.put("engine.sched.solves", solver["solves"])
    bench.samples["traced_pass_s"] = list(traced_walls)
    bench.samples["untraced_pass_s"] = list(untraced_walls)
    bench.info["span_self_ms_per_pass"] = {k: v * 1e3 for k, v in self_s.items()}
    return self_s, plains


# -- probes ------------------------------------------------------------------

def paired_gap_ms(first, second, items) -> tuple[float, float]:
    """``(median of wall(first(item)) - wall(second(item)), median of
    wall(second(item)))`` over ``items``, in ms.  Who goes first
    alternates, so drift and cache warmth fall on both sides equally."""
    calls = (first, second)
    gaps, seconds = [], []
    for k, item in enumerate(items):
        walls = [0.0, 0.0]
        for which in ((0, 1), (1, 0))[k % 2]:
            start = time.perf_counter()
            calls[which](item)
            walls[which] = time.perf_counter() - start
        gaps.append(walls[0] - walls[1])
        seconds.append(walls[1])
    return stats.median(gaps) * 1e3, stats.median(seconds) * 1e3


def engine_b20_metrics(bench: Bench, compiled, tracer) -> None:
    """Batch-20 engine metrics of the scans that run batch 20, from the
    ``engine.predict`` spans of :func:`compose_scan` passes in ``tracer``."""
    bench.put("engine.b20.ms_per_tile",
              stats.median(tracer.per_op("engine.predict", ops=BATCH)) * 1e3)
    bench.put("engine.b20.planned_peak_mb",
              compiled.planned_peak_bytes(BATCH) / 2**20)


def engine_b20_shares(bench: Bench, compiled, stack) -> None:
    """Which kernel family ``engine.b20.ms_per_tile`` is made of, and how
    many conv layers the autotuner moved off the default kernel."""
    profile = compiled.profile(stack, repeats=5, warmup=1)["categories"]
    named = {k: profile.get(k, {"share": 0.0})["share"]
             for k in ("conv", "memops", "pooling")}
    for name, share in named.items():
        bench.put(f"engine.b20.share.{name}", share)
    bench.put("engine.b20.share.other", sum(
        v["share"] for k, v in profile.items() if k not in named))
    bench.put("engine.autotune.nondefault_layers", sum(
        1 for v in compiled.kernel_choices(BATCH).values() if v != "im2col"))


def batch1_metrics(bench: Bench, model, compiled, chips, fallbacks: int) -> None:
    """What the per-tile paths (scan_robust, chip_serve) add around the
    bare engine: ``GuardedEngine.predict_batch`` against
    ``CompiledModel.predict`` on the same 1-tile stacks.  ``fallbacks``
    are the GuardedEngine fallbacks the workload itself saw."""
    from repro.robust import GuardedEngine

    guarded = GuardedEngine(model)
    stacks = [np.ascontiguousarray(chip, dtype=np.float32)[None]
              for chip in chips]
    overhead, bare = paired_gap_ms(
        guarded.predict_batch, lambda x: compiled.predict(x, batch_size=1),
        stacks)
    bench.put("engine.b1.ms_per_tile", bare)
    bench.put("robust.guard.overhead_ms_per_tile", overhead)
    bench.put("robust.guard.fallbacks",
              sum(guarded.fallback_by_reason.values()) + fallbacks)
