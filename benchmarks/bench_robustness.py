"""Robustness gate: corrupted scenes scan, resumes replay, engine faults are loud.

Four scenarios, all with deterministic injected damage (``repro.faults``):

1. **Corrupted-scene scan** — a scene with ~20% of its tiles corrupted
   (NaN pepper, nodata holes, dropped bands, saturation, truncation)
   must scan to completion with zero uncaught exceptions, report tile
   coverage >= 0.95, and land its F1 within a fixed margin of the
   clean-scene scan.  This is the CI gate.
2. **Interrupted scan resume** — a journalled scan truncated after k
   tiles and resumed must reproduce the uninterrupted run byte for byte:
   identical detections, identical journal file.
3. **An engine fault fails loudly** — a service whose compiled program
   emits garbage for its first two batches fails those requests with
   :class:`~repro.robust.EngineError`, tallied by reason in the metrics
   snapshot's ``fallback_by_reason``, and answers the later requests
   with the engine's own bytes.
4. **Robust-stage overhead** — the deployed model and scan geometry
   (``benchmarks/e2e/harness.py``: SPP-Net #3, 100 px windows at stride
   50, engine backend) over the corrupted scene, ``sanitize=`` +
   ``journal=`` against the plain batched scan, as a median of paired
   ratios (``benchmarks/e2e/stats.py``) next to the machine
   fingerprint, and the journal's fsyncs per scan.  The ratio is
   recorded, not gated: it is the number ROADMAP item 4's "<= 1.3x the
   batched scan" target is read from outside the frozen harness.  The
   fsync count is exact and drift-tracked: ``1 + ceil(tiles /
   batch_size)``.

Emits ``BENCH_robustness.json`` so degraded-input telemetry is recorded
run over run.

Usage::

    python benchmarks/bench_robustness.py [--scene-size N] [--fraction F]
                                          [--out PATH]

Also collectable by pytest (``pytest benchmarks/bench_robustness.py``).
"""

import json
import math
import os
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np

from e2e import harness, host, stats
from gates import bench_arg_parser, check, finish

from repro.arch import TABLE1_MODELS, ConvSpec, PoolSpec, SPPNetConfig
from repro.detect import (
    SPPNetDetector,
    evaluate_scene_detections,
    scan_origins,
    scan_scene,
)
from repro.engine import compiled_for
from repro.faults import corrupt_scene
from repro.geo import WatershedConfig, build_scene
from repro.robust import EngineError, GuardedEngine, SanitizePolicy, ScanJournal
from repro.serve import BatchPolicy, InferenceService

ARCH = SPPNetConfig(
    convs=(ConvSpec(8, 3, 1),), pools=(PoolSpec(2, 2),),
    spp_levels=(2, 1), fc_sizes=(32,), name="robustness-bench",
)
WINDOW = STRIDE = 64
THRESHOLD = 0.6
F1_MARGIN = 0.2
COVERAGE_FLOOR = 0.95
OVERHEAD_ROUNDS = 7       # paired rounds behind the overhead ratio
OVERHEAD_WARMUP = 1       # discarded before them


def make_scenes(scene_size: int, fraction: float, seed: int = 5,
                window: int = WINDOW, stride: int = STRIDE):
    scene = build_scene(WatershedConfig(
        size=scene_size, road_spacing=64, stream_threshold=600, seed=seed))
    origins = scan_origins(scene.size, window, stride)
    image, applied = corrupt_scene(scene.image, origins, window,
                                   fraction=fraction, seed=seed)
    return scene, replace(scene, image=image), applied


def run_scan_scenario(scene_size: int = 320, fraction: float = 0.2) -> dict:
    model = SPPNetDetector(ARCH, seed=0)
    scene, bad_scene, applied = make_scenes(scene_size, fraction)

    clean = scan_scene(model, scene, window=WINDOW, stride=STRIDE,
                       confidence_threshold=THRESHOLD,
                       sanitize=SanitizePolicy.for_scene())
    start = time.perf_counter()
    corrupt = scan_scene(model, bad_scene, window=WINDOW, stride=STRIDE,
                         confidence_threshold=THRESHOLD,
                         sanitize=SanitizePolicy.for_scene())
    elapsed = time.perf_counter() - start

    clean_f1 = evaluate_scene_detections(clean, scene.crossings).f1
    corrupt_f1 = evaluate_scene_detections(corrupt, scene.crossings).f1
    cov = corrupt.coverage
    return {
        "scene_size": scene_size,
        "corrupted_fraction_requested": fraction,
        "tiles_corrupted": len(applied),
        "injectors_applied": sorted(set(applied.values())),
        "coverage": cov.to_json(),
        "tile_coverage": cov.coverage,
        "clean_f1": clean_f1,
        "corrupt_f1": corrupt_f1,
        "f1_delta": abs(clean_f1 - corrupt_f1),
        "scan_wall_clock_s": elapsed,
    }


def run_resume_scenario(scene_size: int = 192, fraction: float = 0.25,
                        cut: int = 4) -> dict:
    model = SPPNetDetector(ARCH, seed=0)
    _, bad_scene, _ = make_scenes(scene_size, fraction)

    def scan(path, resume=False):
        return scan_scene(model, bad_scene, window=WINDOW, stride=STRIDE,
                          confidence_threshold=THRESHOLD,
                          sanitize=SanitizePolicy.for_scene(),
                          journal=path, resume=resume)

    with tempfile.TemporaryDirectory() as tmp:
        full_path = Path(tmp) / "full.jsonl"
        full = scan(full_path)
        lines = full_path.read_text().splitlines()

        part_path = Path(tmp) / "part.jsonl"  # crash after `cut` tiles
        part_path.write_text("\n".join(lines[:cut + 1]) + "\n")
        resumed = scan(part_path, resume=True)

        journal_identical = (part_path.read_bytes() == full_path.read_bytes())
        _, records = ScanJournal(full_path).load()

    detections_identical = (
        json.dumps([d.__dict__ for d in resumed])
        == json.dumps([d.__dict__ for d in full])
    )
    return {
        "tiles_total": full.coverage.tiles_total,
        "interrupted_after_tiles": cut,
        "tiles_resumed": resumed.coverage.tiles_resumed,
        "journal_records": len(records),
        "detections_identical": detections_identical,
        "journal_byte_identical": journal_identical,
    }


def run_overhead_scenario(scene_size: int = 320, fraction: float = 0.2,
                          rounds: int = OVERHEAD_ROUNDS) -> dict:
    """What ``sanitize=`` + ``journal=`` cost on the deployed model and
    scan geometry: the robust engine scan of the corrupted scene against
    the batched one of the same scene before corruption (nobody batches
    NaN pixels), paired per round, who goes first alternating."""
    model = SPPNetDetector(TABLE1_MODELS[harness.MODEL_NAME], seed=0).eval()
    scene, bad_scene, applied = make_scenes(
        scene_size, fraction, window=harness.WINDOW, stride=harness.STRIDE)
    n_tiles = len(scan_origins(scene_size, harness.WINDOW, harness.STRIDE))
    policy = SanitizePolicy.for_scene()

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scan.jsonl"

        def robust():
            return scan_scene(model, bad_scene, sanitize=policy,
                              journal=path, **harness.SCAN_KW)

        def batched():
            return scan_scene(model, scene, **harness.SCAN_KW)

        samples = []
        for index in range(OVERHEAD_WARMUP + rounds):
            timing = {}
            for run in (robust, batched)[::1 if index % 2 == 0 else -1]:
                start = time.perf_counter()
                run()
                timing[run.__name__] = (time.perf_counter() - start) * 1e3
            samples.append(timing)
        samples = stats.discard_warmup(samples, OVERHEAD_WARMUP)
        with mock.patch.object(os, "fsync", wraps=os.fsync) as fsync:
            coverage = robust().coverage
    ratios = [s["robust"] / s["batched"] for s in samples]
    return {
        "model": harness.MODEL_NAME,
        "scene_size": scene_size,
        "window": harness.WINDOW,
        "stride": harness.STRIDE,
        "batch_size": harness.SCAN_KW["batch_size"],
        "n_tiles": n_tiles,
        "tiles_corrupted": len(applied),
        "tiles_repaired": coverage.tiles_repaired,
        "rounds": rounds,
        "robust_ms_per_tile": stats.median(
            [s["robust"] for s in samples]) / n_tiles,
        "batched_ms_per_tile": stats.median(
            [s["batched"] for s in samples]) / n_tiles,
        "robust_over_batched_ms_per_tile": {
            "median": stats.median(ratios),
            "interval95": list(stats.bootstrap_median_interval(ratios)),
        },
        "journal_fsyncs_per_scan": fsync.call_count,
        "journal_fsyncs_expected": 1 + math.ceil(
            n_tiles / harness.SCAN_KW["batch_size"]),
    }


class _FaultyCompiled:
    """The compiled program, emitting NaN for its first ``fail_first``
    calls."""

    def __init__(self, model, fail_first: int) -> None:
        self.compiled = compiled_for(model)
        self.fail_first = fail_first
        self.calls = 0

    def predict_stream(self, chips, limit):
        self.calls += 1
        conf, boxes = self.compiled.predict_stream(chips, limit)
        if self.calls <= self.fail_first:
            return np.full_like(conf, np.nan), np.full_like(boxes, np.nan)
        return conf, boxes

    def warmup(self, batch_sizes, sample_shape=None):
        return self.compiled.warmup(batch_sizes, sample_shape)


def run_engine_fault_scenario(n_chips: int = 6, fail_first: int = 2) -> dict:
    model = SPPNetDetector(ARCH, seed=0)
    model.eval()
    rng = np.random.default_rng(0)
    chips = rng.random((n_chips, 4, 24, 24)).astype(np.float32)
    engine_conf, _ = compiled_for(model).predict(chips, batch_size=1)

    guard = GuardedEngine(model, compiled=_FaultyCompiled(model, fail_first))
    with InferenceService(model, BatchPolicy(max_batch=1),
                          cache_size=0, engine=guard) as service:
        futures = [service.submit(c) for c in chips]
        errors = [f.exception(timeout=30) for f in futures]
        snapshot = service.metrics.snapshot()

    raised = [isinstance(e, EngineError) for e in errors]
    answered = [f.result().confidence for f, e in zip(futures, errors)
                if e is None]
    return {
        "chips": n_chips,
        "engine_faults_injected": fail_first,
        "fallback_by_reason": snapshot["fallback_by_reason"],
        "requests_raising_engine_error": sum(raised),
        "faulted_requests_raise": raised == [True] * fail_first + [False] * (
            n_chips - fail_first),
        "later_requests_are_engine_answers": answered == [
            float(c) for c in engine_conf[fail_first:]],
    }


def run_benchmark(scene_size: int = 320, fraction: float = 0.2) -> dict:
    return {
        "benchmark": "robustness",
        "scan": run_scan_scenario(scene_size=scene_size, fraction=fraction),
        "resume": run_resume_scenario(),
        "engine_fault": run_engine_fault_scenario(),
        # what check_regression.py keeps in the baseline: absolute
        # numbers and the ratio behind them, next to the machine
        "absolute": {
            "fingerprint": host.fingerprint(),
            "machine": host.machine_info(),
            "overhead": run_overhead_scenario(scene_size=scene_size,
                                              fraction=fraction),
        },
    }


def payload_checks(payload: dict) -> list:
    scan = payload["scan"]
    resume = payload["resume"]
    fault = payload["engine_fault"]
    overhead = payload["absolute"]["overhead"]
    return [
        check("scan_tiles_corrupted", scan["tiles_corrupted"], ">=", 1,
              track=False),
        check("scan_tile_coverage", scan["tile_coverage"],
              ">=", COVERAGE_FLOOR),
        check("scan_f1_delta_vs_clean", scan["f1_delta"], "<=", F1_MARGIN),
        check("resume_detections_identical",
              resume["detections_identical"], "bool"),
        check("resume_journal_byte_identical",
              resume["journal_byte_identical"], "bool"),
        check("engine_fault_requests_raise",
              fault["faulted_requests_raise"], "bool"),
        check("engine_answers_after_faults",
              fault["later_requests_are_engine_answers"], "bool"),
        # a ratio of two wall-clock timings over a handful of rounds:
        # carried in the tracker's table (ROADMAP item 4 reads it), with
        # no threshold and no drift comparison to flake on a loaded runner
        check("robust_over_batched_ms_per_tile",
              overhead["robust_over_batched_ms_per_tile"]["median"],
              "info", track=False),
        check("journal_fsyncs_per_scan", overhead["journal_fsyncs_per_scan"],
              "<=", overhead["journal_fsyncs_expected"]),
    ]


def test_corrupted_scene_scan_gate():
    """Acceptance: ~20% corrupted tiles — the scan completes with zero
    uncaught exceptions, coverage >= 0.95, F1 within the fixed margin."""
    payload = run_scan_scenario(scene_size=320, fraction=0.2)
    assert payload["tiles_corrupted"] > 0
    assert payload["tile_coverage"] >= COVERAGE_FLOOR
    assert payload["f1_delta"] <= F1_MARGIN


def test_interrupted_scan_resumes_byte_identically():
    """Acceptance: truncate the journal mid-scan, resume, and get the
    uninterrupted run back exactly — detections and journal bytes."""
    payload = run_resume_scenario()
    assert payload["tiles_resumed"] == payload["interrupted_after_tiles"]
    assert payload["detections_identical"]
    assert payload["journal_byte_identical"]


def test_an_engine_fault_fails_loudly():
    """Acceptance: injected engine garbage fails its requests with
    ``EngineError``, tallied in ``ServiceMetrics.fallback_by_reason``;
    the later requests are the engine's own answers."""
    payload = run_engine_fault_scenario()
    assert payload["fallback_by_reason"] == {"non_finite": 2}
    assert payload["requests_raising_engine_error"] == 2
    assert payload["faulted_requests_raise"]
    assert payload["later_requests_are_engine_answers"]


def main() -> None:
    parser = bench_arg_parser(__doc__, "BENCH_robustness.json")
    parser.add_argument("--scene-size", type=int, default=320,
                        help="synthetic scene edge length in pixels")
    parser.add_argument("--fraction", type=float, default=0.2,
                        help="fraction of tiles to corrupt")
    args = parser.parse_args()

    payload = run_benchmark(scene_size=args.scene_size,
                            fraction=args.fraction)

    scan = payload["scan"]
    resume = payload["resume"]
    fault = payload["engine_fault"]
    cov = scan["coverage"]
    print(f"scan     : {scan['tiles_corrupted']} corrupted tiles "
          f"({', '.join(scan['injectors_applied'])}); "
          f"coverage {scan['tile_coverage']:.3f} "
          f"({cov['tiles_repaired']} repaired, "
          f"{cov['tiles_quarantined']} quarantined); "
          f"F1 {scan['corrupt_f1']:.3f} vs clean {scan['clean_f1']:.3f}")
    print(f"resume   : interrupted after {resume['interrupted_after_tiles']}"
          f"/{resume['tiles_total']} tiles; "
          f"detections identical={resume['detections_identical']}, "
          f"journal bytes identical={resume['journal_byte_identical']}")
    print(f"fault    : {fault['requests_raising_engine_error']} of "
          f"{fault['chips']} requests raised EngineError "
          f"{fault['fallback_by_reason']}; later requests engine "
          f"answers={fault['later_requests_are_engine_answers']}")
    overhead = payload["absolute"]["overhead"]
    ratio = overhead["robust_over_batched_ms_per_tile"]
    print(f"overhead : {overhead['model']}, {overhead['n_tiles']} tiles "
          f"({overhead['tiles_repaired']} repaired): robust "
          f"{overhead['robust_ms_per_tile']:.2f} vs batched "
          f"{overhead['batched_ms_per_tile']:.2f} ms/tile, ratio "
          f"{ratio['median']:.2f} [{ratio['interval95'][0]:.2f}, "
          f"{ratio['interval95'][1]:.2f}] over {overhead['rounds']} paired "
          f"rounds on {host.fingerprint()}; "
          f"{overhead['journal_fsyncs_per_scan']} fsyncs per scan")
    print(f"-> {args.out}")
    finish(payload, payload_checks(payload), args.out,
           enforce=args.gate == "on")


if __name__ == "__main__":
    main()
