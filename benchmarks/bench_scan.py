"""Whole-scene scan throughput: shared feature maps, engine, warm pool.

The deployment unit of the paper's detector is not one chip but one
*scene*: thousands of overlapping windows swept across a watershed
raster.  This benchmark measures that sweep two ways.

**The stride table** (deployment model, 100 px window, sequential
engine): ``scan_scene`` — which runs the conv layers overlapping
windows share once per scene row chunk (docs/engine.md "Windows of one
raster") — against the per-window composition it replaced
(``TileSource.batches -> CompiledModel.predict -> decode -> NMS``, the
frozen ``benchmarks/e2e`` composition), at stride 25 / 50 / 100.  Each
stride records absolute ms/tile for both next to the machine
fingerprint, the ``window_plan`` that decided, and the median of paired
ratios; the two must return the same detections.  Gated: the shared
path may not lose at stride 50 (it reads about 0.70) nor at stride 100,
where windows do not overlap and the rule must decline to the
per-window programs.  Beside it, **scene-size rows** at stride 50: 577
and 596 px, sides the stride does not divide, so the last origin of
each axis is pinned to the scene edge.  Each records the same pair of
timings, the plan with its ``edge_windows`` (the windows off the shared
grid, which run the per-window trunk) and whether ``predict_windows`` returned
``predict``'s bytes over the gathered stacks.  Gated: shared /
per-window <= 0.85 at 577 px, where 21 of 121 windows are edge windows
(it reads 0.71-0.76; 0.96-1.0 when the edge origin set the lattice).

**The pool rows** (a small model, so scanpar's own costs show): the
same scene scanned on the engine by

* sequential : one process, the baseline;
* parallel : ``scan_scene(n_workers=N)`` with shared-memory sharding,
  measured both *cold* (a private throwaway ``WorkerPool`` built inside
  the timed call: worker spawn + model send + engine warmup inside the
  timed region) and *warm* (the persistent shared pool, workers already
  holding the deserialized model and its warmed engine);
* auto : ``n_workers="auto"`` — the adaptive policy picks the worker
  count from CPU affinity and scene size, inlining to sequential when
  parallelism cannot win; the chosen count is reported in the payload.

Every parallel configuration is parity-checked against the sequential
scan — the scanpar determinism contract says detections and coverage
must match exactly.  The ratio gates are the **median of paired
ratios** over fixed rounds (each round times every warm configuration
once, from a rotating start; one discarded warm-up round; a bootstrap
interval from ``benchmarks/e2e/stats.py``): no best-of, no
resample-until-pass.  The pool's win is made explicit as
``parallel_overhead_ms`` (cold minus warm scan time: what the
persistent pool saves every scan after the first).  Emits
``BENCH_scan.json``.

The speedup gate is honest about hardware: sharding cannot beat the
sequential scan on a single-core runner, so ``--gate-mode auto``
(default, what CI runs) enforces the warm-pool speedup gates only when
at least two cores are visible and falls back to parity-only
otherwise.  The auto row's never-slower gate applies everywhere: the
adaptive policy must not lose to the sequential engine scan by more
than timing noise on any core count.

Usage::

    python benchmarks/bench_scan.py [--scene-size N] [--stride-scene N]
                                    [--gate-mode MODE] [--out PATH]

Also collectable by pytest (``pytest benchmarks/bench_scan.py``).
"""

import os
import time

from repro.arch import TABLE1_MODELS, ConvSpec, PoolSpec, SPPNetConfig
from repro.detect import SPPNetDetector, scan_scene
from repro.detect.scan import scan_origins
from repro.engine import compiled_for
from repro.geo import WatershedConfig, build_scene
from repro.scanpar import (
    TileSource,
    WorkerPool,
    default_start_method,
    resolve_n_workers,
    spawn_cost_ms,
    warm_pool,
)

from e2e import harness, host, layers, stats
from gates import bench_arg_parser, check, evaluate, finish

SCENE_SIZE = 384
WINDOW = 64
STRIDE = 32
BATCH_SIZE = 20
CONFIDENCE = 0.3
ROUNDS = 11               # paired rounds behind every ratio gate
WARMUP_ROUNDS = 1         # discarded before them
# Medians of paired ratios on the 2-core reference box (95258cd88437)
# at the 256 px CI scene / the 600 px scene:
#   warm pool vs sequential   0.62-0.72 / 1.2
#   auto vs sequential        1.0 (inlines) / 0.9-1.0
# This model's whole conv trunk is shared, so a tile costs 0.2-0.3 ms, a
# 49-tile scan is 14 ms of work against ~8 ms of dispatch, and each
# shard recomputes the prefix chunks its first window row straddles.
# With intervals as wide as 0.6-1.4 on 15-60 ms scans, the pool gates
# are floors against a collapse, not claimed speedups; the 384 px
# default reads 0.8-1.2 and 0.7-1.1.
POOL_SPEEDUP_GATE = 0.5   # warm parallel vs sequential
AUTO_FLOOR = 0.6          # auto row vs sequential

STRIDE_SCENE = harness.SCENE["size"]
STRIDES = (25, 50, 100)
STRIDE_ROUNDS = 7
SHARED_GATES = {50: 1.0, 100: 1.03}   # shared / per-window ms per tile
SCENE_SIZES = (577, 596)  # sides stride 50 does not divide
SCENE_STRIDE = 50
# shared / per-window at 577 px.  Five runs on the reference box read
# medians of 0.71-0.76 (intervals up to 0.86 on a loaded hour) with 21
# edge windows on the per-window trunk; the same row reads 0.96-1.0
# when the edge origin sets the lattice and only conv1 shares (PR 22).
# ROADMAP item 5's target is 0.75: the edge path sits on that line, not
# under it, so the gate separates the two regimes and the target waits
# for the edge windows' own chunk grid.
EDGE_GATE = 0.85

ARCH = SPPNetConfig(
    convs=(ConvSpec(8, 3, 1),), pools=(PoolSpec(2, 2),),
    spp_levels=(2, 1), fc_sizes=(32,), name="scan-bench",
)
DEPLOYED = TABLE1_MODELS[harness.MODEL_NAME]


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def make_scene(size: int = SCENE_SIZE):
    return build_scene(WatershedConfig(size=size, road_spacing=96,
                                       stream_threshold=600, seed=5))


def timed_ms(run) -> tuple[float, object]:
    start = time.perf_counter()
    result = run()
    return (time.perf_counter() - start) * 1e3, result


def paired_ratio(rounds: list[dict], top: str, bottom: str) -> dict:
    """Median and bootstrap interval of ``top / bottom`` per round."""
    ratios = [r[top] / r[bottom] for r in rounds]
    return {"median": stats.median(ratios),
            "interval95": list(stats.bootstrap_median_interval(ratios))}


# -- the stride table --------------------------------------------------------

def shared_vs_per_window(model, scene, stride: int, rounds: int) -> dict:
    """One sequential engine scan geometry: the shared path
    (``scan_scene``) against the per-window composition, paired per
    round, who goes first alternating."""
    compiled = compiled_for(model)
    origins = scan_origins(scene.size, harness.WINDOW, stride)
    kwargs = {**harness.SCAN_KW, "stride": stride}

    def shared():
        return scan_scene(model, scene, n_workers=1, **kwargs)

    def per_window():
        return layers.compose_scan(compiled, scene.image, origins)[0]

    samples, same = [], True
    for index in range(WARMUP_ROUNDS + rounds):
        timing, found = {}, {}
        for run in (shared, per_window)[::1 if index % 2 == 0 else -1]:
            timing[run.__name__], found[run.__name__] = timed_ms(run)
        same = same and list(found["shared"]) == found["per_window"]
        samples.append(timing)
    samples = stats.discard_warmup(samples, WARMUP_ROUNDS)
    plan = compiled.window_plan(scene.image.shape, harness.WINDOW, origins)
    return {
        "scene_size": scene.size,
        "stride": stride,
        "n_tiles": len(origins),
        "shared_ms_per_tile": stats.median(
            [s["shared"] for s in samples]) / len(origins),
        "per_window_ms_per_tile": stats.median(
            [s["per_window"] for s in samples]) / len(origins),
        "shared_over_per_window_ms_per_tile": paired_ratio(
            samples, "shared", "per_window"),
        "same_detections": same,
        "window_plan": plan.to_json(),
    }


def bitwise_equal(compiled, image, origins) -> bool:
    """``predict_windows`` returns ``predict``'s bytes over the gathered
    window stacks, micro-batch by micro-batch."""
    source = TileSource(image, harness.WINDOW, batch_size=BATCH_SIZE)
    ours = compiled.predict_windows(image, origins, harness.WINDOW,
                                    batch_size=BATCH_SIZE)
    return all(
        a.tobytes() == b.tobytes()
        for got, (_, stack) in zip(ours, source.batches(origins))
        for a, b in zip(got, compiled.predict(stack, batch_size=len(stack))))


def stride_table(scene_size: int = STRIDE_SCENE,
                 rounds: int = STRIDE_ROUNDS) -> dict:
    """The deployment model's sequential engine scans: one scene at
    each stride, then the scene sizes stride 50 does not divide."""
    model = SPPNetDetector(DEPLOYED, seed=0).eval()

    def scene_of(size: int):
        return build_scene(WatershedConfig(**{**harness.SCENE, "size": size},
                                           seed=5))

    scene = scene_of(scene_size)
    rows = [shared_vs_per_window(model, scene, stride, rounds)
            for stride in STRIDES]
    scene_rows = []
    for size in SCENE_SIZES:
        scene = scene_of(size)
        row = shared_vs_per_window(model, scene, SCENE_STRIDE, rounds)
        row["bitwise_equal"] = bitwise_equal(
            compiled_for(model), scene.image,
            scan_origins(size, harness.WINDOW, SCENE_STRIDE))
        scene_rows.append(row)
    return {"model": DEPLOYED.name, "scene_size": scene_size,
            "window": harness.WINDOW, "rounds": rounds, "rows": rows,
            "scene_rows": scene_rows}


# -- the pool rows -----------------------------------------------------------

def run_benchmark(scene_size: int = SCENE_SIZE,
                  n_workers: int | None = None,
                  stride_scene: int = STRIDE_SCENE) -> dict:
    model = SPPNetDetector(ARCH, seed=0)
    model.eval()
    scene = make_scene(scene_size)
    origins = scan_origins(scene.size, WINDOW, STRIDE)
    n_tiles = len(origins)

    # what the adaptive policy would pick for this scene on this box;
    # the forced count keeps the parity rows on the parallel path even
    # on a single-core runner where "auto" correctly inlines
    auto_n = resolve_n_workers("auto", n_origins=n_tiles,
                               batch_size=BATCH_SIZE)
    forced = n_workers if n_workers is not None else max(2, auto_n)

    def scan(**kwargs):
        return scan_scene(model, scene, window=WINDOW, stride=STRIDE,
                          confidence_threshold=CONFIDENCE,
                          batch_size=BATCH_SIZE, **kwargs)

    # the sharded scan must reproduce the sequential scan exactly
    reference = scan(n_workers=1)

    # The cold row builds a private throwaway pool inside its timed call
    # (spawn + model send + engine warmup are what it measures) *before*
    # any shared-pool scan; one untimed shared-pool scan then populates
    # the pool, so the paired rounds time workers that already hold the
    # model and its warmed engine.  Each round runs every paired
    # configuration once, starting one further down the list than the
    # last, so no configuration always inherits the same predecessor's
    # spinning BLAS threads.
    def cold_scan():
        with WorkerPool(forced) as private:
            return scan(pool=private, n_workers=forced)
    paired = {
        "sequential-engine": dict(n_workers=1),
        "auto-engine": dict(n_workers="auto"),
        "parallel-engine": dict(n_workers=forced),
    }
    results: dict[str, object] = {}
    cold_ms, results["parallel-engine-cold"] = timed_ms(cold_scan)
    scan(n_workers=forced)
    labels = list(paired)
    rounds = []
    for index in range(WARMUP_ROUNDS + ROUNDS):
        timing = {}
        for label in labels[index % len(labels):] + labels[:index % len(labels)]:
            timing[label], results[label] = timed_ms(
                lambda: scan(**paired[label]))
        rounds.append(timing)
    rounds = stats.discard_warmup(rounds, WARMUP_ROUNDS)
    walls = {label: [r[label] for r in rounds] for label in paired}
    walls["parallel-engine-cold"] = [cold_ms]

    sequential_ms = stats.median(walls["sequential-engine"])
    rows = []
    configs = {**paired, "parallel-engine-cold": paired["parallel-engine"]}
    for label, kwargs in configs.items():
        elapsed_ms = stats.median(walls[label])
        rows.append({
            "label": label,
            "n_workers": kwargs["n_workers"],
            "tiles_per_s": n_tiles / elapsed_ms * 1e3,
            "elapsed_ms": elapsed_ms,
            "speedup_vs_sequential": sequential_ms / elapsed_ms,
            "matches_sequential": (
                list(results[label]) == list(reference)
                and results[label].coverage == reference.coverage
            ),
            "n_detections": len(results[label]),
        })

    by_label = {row["label"]: row for row in rows}
    overhead_ms = (by_label["parallel-engine-cold"]["elapsed_ms"]
                   - by_label["parallel-engine"]["elapsed_ms"])

    method = default_start_method()
    pool = warm_pool(method)

    strides = stride_table(stride_scene)
    ratios = {
        "parallel_engine_vs_sequential_engine": paired_ratio(
            rounds, "sequential-engine", "parallel-engine"),
        "auto_vs_sequential_engine": paired_ratio(
            rounds, "sequential-engine", "auto-engine"),
    }
    return {
        "benchmark": "scan",
        "model": ARCH.name,
        "scene_size": scene_size,
        "window": WINDOW,
        "stride": STRIDE,
        "batch_size": BATCH_SIZE,
        "n_tiles": n_tiles,
        "cpu_count": cpu_count(),
        "n_workers_auto": auto_n,
        "n_workers_forced": forced,
        "parallel_overhead_ms": overhead_ms,
        "pool": {
            "start_method": method,
            "spawn_ms": pool.spawn_ms if pool is not None else None,
            "spawn_cost_ms_estimate": spawn_cost_ms(method),
            "stats": dict(pool.stats) if pool is not None else None,
        },
        "configs": rows,
        # what check_regression.py keeps in the baseline: absolute
        # numbers and the ratios behind the gates, next to the machine
        "absolute": {
            "fingerprint": host.fingerprint(),
            "machine": host.machine_info(),
            "stride_table": strides,
            "pool": {
                "scene_size": scene_size,
                "n_tiles": n_tiles,
                "rounds": ROUNDS,
                "ms_per_tile": {label: by_label[label]["elapsed_ms"] / n_tiles
                                for label in by_label},
                "paired_ratios": ratios,
            },
        },
    }


def payload_checks(payload: dict, mode: str) -> list:
    """Gate criteria for one scan payload.

    ``mode`` follows the module docstring: ``speedup`` additionally
    enforces the warm-pool speedup gates, ``parity`` checks determinism
    only, ``auto`` picks by visible core count.  Parity, the stride
    table, the pool-overhead sign, and the auto floor gate in every
    mode.
    """
    checks = [
        check(f"{row['label']}_matches_sequential",
              row["matches_sequential"], "bool")
        for row in payload["configs"]
    ]
    strides = payload["absolute"]["stride_table"]["rows"]
    for row in strides:
        stride = row["stride"]
        checks.append(check(f"stride{stride}_shared_matches_per_window",
                            row["same_detections"], "bool"))
        if stride in SHARED_GATES:
            # a ratio of two timings over a handful of rounds:
            # enforced, not drift-tracked
            checks.append(check(
                f"stride{stride}_shared_over_per_window_ms_per_tile",
                row["shared_over_per_window_ms_per_tile"]["median"],
                "<=", SHARED_GATES[stride], track=False))
    by_stride = {row["stride"]: row["window_plan"] for row in strides}
    checks.append(check("stride50_shares_through_conv2",
                        list(by_stride[50]["shared"])[-1:] == ["conv2"],
                        "bool"))
    checks.append(check("stride100_declines",
                        by_stride[100]["reason"] is not None, "bool"))
    for row in payload["absolute"]["stride_table"]["scene_rows"]:
        size = row["scene_size"]
        checks.append(check(f"scene{size}_shared_matches_per_window",
                            row["same_detections"], "bool"))
        checks.append(check(f"scene{size}_bitwise_equal",
                            row["bitwise_equal"], "bool"))
        checks.append(check(f"scene{size}_shares_through_conv2",
                            list(row["window_plan"]["shared"])[-1:]
                            == ["conv2"], "bool"))
        ratio = row["shared_over_per_window_ms_per_tile"]["median"]
        name = f"scene{size}_shared_over_per_window_ms_per_tile"
        if size == 577:
            checks.append(check("scene577_edge_windows",
                                row["window_plan"]["edge_windows"] == 21,
                                "bool"))
            checks.append(check(name, ratio, "<=", EDGE_GATE, track=False))
        else:
            checks.append(check(name, ratio, "info", track=False))
    # machine-absolute timings: tracked for sign/floor, not for drift
    checks.append(check("parallel_overhead_ms",
                        payload["parallel_overhead_ms"], ">=", 0.0,
                        track=False))
    ratios = payload["absolute"]["pool"]["paired_ratios"]
    checks.append(check("auto_vs_sequential_engine",
                        ratios["auto_vs_sequential_engine"]["median"],
                        ">=", AUTO_FLOOR, track=False))
    if mode == "auto":
        mode = "speedup" if payload["cpu_count"] >= 2 else "parity"
    if mode == "speedup":
        checks.append(check(
            "parallel_engine_speedup_vs_sequential_engine",
            ratios["parallel_engine_vs_sequential_engine"]["median"],
            ">=", POOL_SPEEDUP_GATE, track=False))
    return checks


def test_scan_configurations_agree():
    """Acceptance: every scan configuration reproduces the sequential
    scan exactly, the shared path returns the per-window
    composition's detections at every stride without losing at stride 50
    or 100, the persistent pool beats a cold pool, the auto policy holds
    its floor against the sequential engine scan, and the warm-pool
    speedup gates additionally apply when cores allow."""
    payload = run_benchmark(scene_size=256, stride_scene=300)
    assert evaluate(payload_checks(payload, "auto")) == []


def main() -> None:
    parser = bench_arg_parser(__doc__, "BENCH_scan.json")
    parser.add_argument("--scene-size", type=int, default=SCENE_SIZE)
    parser.add_argument("--stride-scene", type=int, default=STRIDE_SCENE,
                        help="scene side of the stride table (a multiple "
                        "of 100, so stride 100 does not overlap)")
    parser.add_argument("--workers", type=int, default=None,
                        help="forced parallel worker count for the parity "
                        "rows (default: max(2, auto))")
    parser.add_argument("--gate-mode", choices=("auto", "speedup", "parity"),
                        default="auto",
                        help="speedup enforces the warm-pool speedup gates; "
                        "parity checks determinism only; auto picks by "
                        "visible core count")
    args = parser.parse_args()

    payload = run_benchmark(args.scene_size, args.workers, args.stride_scene)

    table = payload["absolute"]["stride_table"]
    print(f"stride table: {table['model']}, {table['scene_size']}px scene, "
          f"window {table['window']}, sequential engine, median of "
          f"{table['rounds']} paired rounds on {host.fingerprint()}")
    for row in table["rows"] + table["scene_rows"]:
        ratio = row["shared_over_per_window_ms_per_tile"]
        plan = row["window_plan"]
        how = plan["reason"] or "shares " + "+".join(plan["shared"])
        if "bitwise_equal" in row:
            label = f"scene {row['scene_size']:>4d}"
            parity = "bitwise" if row["bitwise_equal"] else "NOT BITWISE"
            how += f", {plan['edge_windows']} edge windows, {parity}"
        else:
            label = f"stride {row['stride']:>4d}"
        print(f"  {label} ({row['n_tiles']:>3d} tiles): "
              f"shared {row['shared_ms_per_tile']:5.2f} vs per-window "
              f"{row['per_window_ms_per_tile']:5.2f} ms/tile  ratio "
              f"{ratio['median']:.2f} [{ratio['interval95'][0]:.2f}-"
              f"{ratio['interval95'][1]:.2f}]  {how}")
    print(f"scene {payload['scene_size']}px, {payload['n_tiles']} tiles, "
          f"{payload['cpu_count']} cpu(s), auto -> "
          f"{payload['n_workers_auto']} worker(s), forced "
          f"{payload['n_workers_forced']}")
    for row in payload["configs"]:
        parity = "ok" if row["matches_sequential"] else "MISMATCH"
        print(f"{row['label']:<20s}: {row['tiles_per_s']:8.1f} tiles/s  "
              f"({row['speedup_vs_sequential']:4.2f}x)  parity={parity}")
    for name, ratio in payload["absolute"]["pool"]["paired_ratios"].items():
        print(f"{name:<37s}: {ratio['median']:.2f} "
              f"[{ratio['interval95'][0]:.2f}-{ratio['interval95'][1]:.2f}]")
    pool = payload["pool"]
    print(f"pool              : start_method={pool['start_method']} "
          f"spawn_ms={pool['spawn_ms']} warm saves "
          f"{payload['parallel_overhead_ms']:.1f} ms/scan -> {args.out}")

    finish(payload, payload_checks(payload, args.gate_mode), args.out,
           enforce=args.gate == "on")


if __name__ == "__main__":
    main()
