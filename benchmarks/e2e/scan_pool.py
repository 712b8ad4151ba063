"""scan_pool: ``scan_scene(..., n_workers=2)`` on the warm shared pool.

The same engine work as scan_seq split in two, plus everything
``scanpar`` adds: the scene copied to shared memory, batch-aligned
sharding, dispatch over the worker pipes, result slabs, merge -- and two
workers times two BLAS threads on two cores.  A ``scanpar`` change shows
here and not on scan_seq.  The worker count is an explicit 2: ``"auto"``
decides from a spawn-cost moving average, so its choice depends on
timing; what it would have picked is recorded.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

import numpy as np

from . import checks, host, layers, stats
from .harness import BATCH, CONF_THRESHOLD, NMS_RADIUS, SCAN_KW, STRIDE, WINDOW, Bench
from .spans import Tracer

N_WORKERS = 2


def _tasks(shards, shared, slabs, model_hash, scene_size):
    from repro.scanpar import ShardTask

    return [ShardTask(shard_index=s.index, start=s.start, stop=s.stop,
                      shm=shared.spec(), model_hash=model_hash,
                      scene_size=scene_size, window=WINDOW, stride=STRIDE,
                      batch_size=BATCH, backend="engine",
                      confidence_threshold=CONF_THRESHOLD, result=slab.spec())
            for s, slab in zip(shards, slabs)]


def compose_parallel(pool, model_hash, scene, origins, tracer, pass_id):
    """The sharded scan, composed from scanpar's public pieces with a
    span around each: partition -> share scene -> allocate slabs ->
    pool.run -> merge -> decode -> NMS."""
    from repro.detect import ScanCoverage, ScanDetections, non_max_suppression
    from repro.scanpar import SharedArray, partition_origins

    span = tracer.span
    with span("pass", pass_id):
        with span("scanpar.sharding.partition"):
            shards = partition_origins(len(origins), N_WORKERS, BATCH)
        with span("scanpar.shm.share"):
            shared = SharedArray(np.asarray(scene.image))
        slabs = []
        try:
            with span("scanpar.shm.slabs"):
                for shard in shards:
                    slabs.append(SharedArray.allocate((shard.size, 5),
                                                      np.float32))
            tasks = _tasks(shards, shared, slabs, model_hash, scene.size)
            with span("scanpar.pool.run"):
                payloads = pool.run(tasks)
            with span("scanpar.parallel.merge"):
                parts = [slab.array().copy() if p["via_slab"] else
                         np.column_stack([p["confidences"], p["boxes"]])
                         for slab, p in zip(slabs, payloads)]
                merged = np.concatenate(parts)
        finally:
            with span("scanpar.shm.release"):
                for block in (shared, *slabs):
                    block.close()
                    block.unlink()
        with span("detect.scan.decode"):
            decoded = layers.decode(origins, merged[:, 0], merged[:, 1:5])
        with span("detect.scan.nms"):
            kept = non_max_suppression(decoded, radius=NMS_RADIUS)
    return ScanDetections(kept, ScanCoverage(tiles_total=len(origins),
                                             tiles_scanned=len(origins)))


def _pool_probes(bench: Bench, pool, model, compiled, model_hash, scene,
                 origins, self_s, pool_walls, worker_cpu_s) -> None:
    """The layer metrics of a traced scan_pool run: the composition's
    spans, then what only separate calls can show."""
    from repro.scanpar import SharedArray, TileSource, partition_origins, \
        resolve_n_workers, run_shard

    bench.put("scanpar.pool.spawn_s", bench.timers["scanpar.pool.spawn_s"])
    bench.put("scanpar.pool.ensure_model_s",
              bench.timers["scanpar.pool.ensure_model_s"])
    bench.put("scanpar.shm.share_ms_per_scene", 1e3 * (
        self_s["scanpar.shm.share"] + self_s["scanpar.shm.slabs"]
        + self_s["scanpar.shm.release"]))
    bench.put("scanpar.sharding.partition_ms",
              1e3 * self_s["scanpar.sharding.partition"])
    bench.put("scanpar.pool.run_ms_per_scene", 1e3 * self_s["scanpar.pool.run"])
    bench.put("scanpar.parallel.overhead_ms_per_scene", 1e3 * sum(
        v for k, v in self_s.items() if k != "scanpar.pool.run"))

    shards = partition_origins(len(origins), N_WORKERS, BATCH)
    with SharedArray(np.asarray(scene.image)) as shared:
        slabs = [SharedArray.allocate((s.size, 5), np.float32) for s in shards]
        try:
            tasks = _tasks(shards, shared, slabs, model_hash, scene.size)
            alone = []
            for task in tasks:          # each shard with the pool to itself
                start = time.perf_counter()
                pool.run([task])
                alone.append(time.perf_counter() - start)
            bench.put("scanpar.pool.shard_skew",
                      max(alone) / (sum(alone) / len(alone)))
            # pickle + pipe + slab: one micro-batch through the pool and
            # inline, alternating who goes first so drift falls on both
            first = replace(tasks[0], stop=tasks[0].start + BATCH)
            cache = {model_hash: model}
            bench.put("scanpar.pool.roundtrip_ms", layers.paired_gap_ms(
                lambda task: pool.run([task]),
                lambda task: run_shard(task, cache), [first] * 6)[0])
        finally:
            for slab in slabs:
                slab.close()
                slab.unlink()

    # the same scan in this process, composed and traced: the sequential
    # wall the pool is compared with, and the batch-20 engine spans
    sequential = Tracer()
    for k in range(2):
        layers.compose_scan(compiled, scene.image, origins, sequential, k)
    layers.engine_b20_metrics(bench, compiled, sequential)
    bench.put("scanpar.parallel.efficiency",
              stats.median([s.duration for s in sequential.spans
                            if s.name == "pass"])
              / (N_WORKERS * stats.median(pool_walls)))
    bench.put("scanpar.workers.rss_mb", host.rss_mb(pool.worker_pids()))
    bench.put("scanpar.workers.cpu_s_per_scene", worker_cpu_s)
    bench.put("scanpar.auto_workers", resolve_n_workers(
        "auto", n_origins=len(origins), batch_size=BATCH))
    bench.put("scanpar.tiling.buffer_mb", TileSource(
        scene.image, WINDOW, batch_size=BATCH).tile_buffer_bytes / 2**20)
    bench.put("detect.scan.nms_ms_per_scene", 1e3 * self_s["detect.scan.nms"])


def run(bench: Bench) -> None:
    from repro.detect import ScanCoverage, scan_origins, scan_scene
    from repro.scanpar import get_pool

    plan = bench.plan
    origins = scan_origins(plan.scene_size, WINDOW, STRIDE)
    model = bench.build_model()
    compiled = bench.compile_engine(model, bench.scan_batch_sizes())
    with bench.phase("scanpar.pool.spawn_s"):
        pool = get_pool(N_WORKERS)
    with bench.phase("scanpar.pool.ensure_model_s"):
        model_hash = pool.ensure_model(model)
    bench.end_setup(pool.worker_pids())
    bench.info["pool_start_method"] = pool.start_method

    scene = bench.make_scene()

    def scan():
        # pinned to the shared pool made at set-up: once an engine program
        # with a parallel IOS schedule has run, its executor thread makes
        # the default start method flip to spawn and an unpinned scan
        # would quietly build a second pool
        return scan_scene(model, scene, n_workers=N_WORKERS, pool=pool,
                          **SCAN_KW)

    # the sequential engine scan made in this process is the reference:
    # the pool's result must equal it, detections and coverage
    with bench.phase("reference_s"):
        kept, decoded, _, _ = layers.compose_scan(compiled, scene.image, origins)
    full = ScanCoverage(tiles_total=len(origins), tiles_scanned=len(origins))
    with bench.phase("warmup_s"):
        for _ in range(plan.warmup):      # workers bind their programs here
            scan()
    pids = pool.worker_pids()

    if bench.trace:
        cpu0 = host.cpu_seconds(pids)
        self_s, results = layers.traced_passes(
            bench, Tracer(), scan,
            lambda tr, k: compose_parallel(pool, model_hash, scene, origins,
                                           tr, k),
            checks.same_scan, len(origins))
        worker_cpu_s = (host.cpu_seconds(pids) - cpu0) / (2 * plan.trace_passes)
        _pool_probes(bench, pool, model, compiled, model_hash, scene, origins,
                     self_s, bench.samples["untraced_pass_s"], worker_cpu_s)
        bench.put("detect.scan.detections", len(kept))
    else:
        results = bench.timed_passes(scan, len(origins), worker_pids=pids)
    bench.info["pool_stats"] = dict(pool.stats)
    bench.info["pool_pids_unchanged"] = pool.worker_pids() == pids

    with bench.phase("verify_s"):
        bench.failed += sum(r.coverage.tiles_total - r.coverage.tiles_scanned
                            for r in results if r is not None)
        checks.check_decode_share(bench, len(decoded), len(origins))
        bench.check(
            "every pool pass equals the sequential engine scan of this process",
            all(r is not None and list(r) == kept and r.coverage == full
                for r in results),
            f"{len(results)} passes, {len(kept)} detections")
        bench.check("the pool kept its workers", pool.worker_pids() == pids
                    and all(os.path.exists(f"/proc/{p}") for p in pids))
    bench.info["detections"] = len(kept)
    bench.collect_info(compiled)
