"""chip_serve: chips through one ``InferenceService(backend="engine")``.

Closed loop: one submitter thread keeps IN_FLIGHT requests in flight and
sends the next when one completes, so a slower service is offered less
load.  A quarter of the chips are repeats drawn round-robin from a hot
set, the rest are distinct tiles of the scene at random origins.  This is
the request path -- admission validation, ``chip_key`` hashing, the LRU
cache, the batcher, the guarded engine at mixed batch sizes -- which the
scan workloads bypass entirely.

The hot set is visited round-robin, so a hot chip returns every
``hot / HOT_SHARE`` requests (256 at full size): far more than IN_FLIGHT,
so its first answer is cached before it is asked again, and well inside
the cache's 512 entries, so it is never evicted.  Every repeat after the
first visit is therefore a hit and the hit count repeats exactly.

The stream is cut into blocks (the passes of this workload), each drained
before the next begins: the speed probe has to run between passes, and
must not compete with requests in flight.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import layers, stats
from .harness import HOT_SHARE, IN_FLIGHT, WINDOW, Bench, PassTimer, \
    sample_indices
from .spans import NO_TRACE, Tracer

RESULT_TOL = 1e-5       # served vs direct GuardedEngine answer


@dataclass
class Stream:
    """What one closed-loop stream of requests observed."""

    sent: list[float]
    done: list[float]
    results: list                         # DetectionResult or the exception

    def latencies_ms(self) -> list[float]:
        return [(d - s) * 1e3 for s, d in zip(self.sent, self.done)]

    def errors(self) -> list[BaseException]:
        return [r for r in self.results if isinstance(r, BaseException)]


def make_sequence(bench: Bench, total: int) -> tuple[list, list[int]]:
    """``(origin per request, indices of the hot-set requests)``.

    A seeded quarter of the request slots go to the hot set, visited
    round-robin; every other slot gets an origin no other request has.
    """
    plan = bench.plan
    rng = np.random.default_rng(bench.seed)
    side = plan.scene_size - WINDOW + 1
    hot_slots = sorted(int(i) for i in rng.choice(
        total, size=round(HOT_SHARE * total), replace=False))
    flat = rng.choice(side * side, size=total - len(hot_slots) + plan.hot,
                      replace=False)
    cells = [(int(f) // side, int(f) % side) for f in flat]
    hot, distinct = cells[:plan.hot], iter(cells[plan.hot:])
    visit = {slot: hot[k % plan.hot] for k, slot in enumerate(hot_slots)}
    return [visit[i] if i in visit else next(distinct)
            for i in range(total)], hot_slots


def serve_stream(service, source, origins, *, tracer=NO_TRACE,
                 pass_id=None) -> Stream:
    """Send ``origins`` through ``service.submit`` with IN_FLIGHT in
    flight; returns when every request has completed."""
    n = len(origins)
    stream = Stream(sent=[0.0] * n, done=[0.0] * n, results=[None] * n)
    slots = threading.Semaphore(IN_FLIGHT)
    span = tracer.span

    def finished(index: int, future) -> None:
        stream.done[index] = time.perf_counter()
        try:
            stream.results[index] = future.result()
        except Exception as exc:       # rejected, timed out, worker error
            stream.results[index] = exc
        slots.release()

    with span("pass", pass_id, ops=n):
        for index, origin in enumerate(origins):
            with span("serve.wait"):
                slots.acquire()
            with span("scanpar.tiling.tile"):
                chip = np.asarray(source.tile(origin), dtype=np.float32)
            stream.sent[index] = time.perf_counter()
            try:
                with span("serve.submit"):
                    future = service.submit(chip)
            except Exception as exc:   # admission: invalid, queue full, stopped
                stream.done[index] = time.perf_counter()
                stream.results[index] = exc
                slots.release()
                continue
            future.add_done_callback(partial(finished, index))
        with span("serve.drain"):
            for _ in range(IN_FLIGHT):
                slots.acquire()
    if tracer is not NO_TRACE:
        for sent, done in zip(stream.sent, stream.done):
            tracer.record("serve.request", sent, done, pass_id=pass_id)
    return stream


def _join(streams: list[Stream]) -> Stream:
    return Stream(sent=[t for s in streams for t in s.sent],
                  done=[t for s in streams for t in s.done],
                  results=[r for s in streams for r in s.results])


def _timed_blocks(bench: Bench, service, source, blocks: list) -> Stream:
    """The untraced measurement.  A pass is one block of ``plan.block``
    requests sent closed-loop and drained; the speed probe runs between
    blocks, which is why the stream pauses there.  Request latencies are
    corrected by their own block's slowdown."""
    plan = bench.plan
    with bench.phase("warmup_s"):
        streams = [serve_stream(service, source, block)
                   for block in blocks[:plan.warmup]]
    timer = PassTimer(bench.probe, [])
    timed = [timer.run(lambda block=block: serve_stream(service, source, block))
             for block in blocks[plan.warmup:]]
    bench.info["pass_errors"] = timer.errors
    bench.record_end_to_end(timer, plan.block)
    done = [stream for stream in timed if stream is not None]
    if len(done) < len(timed):     # a block raised: its chips were not served
        blocks[plan.warmup:] = [block for block, stream in
                                zip(blocks[plan.warmup:], timed)
                                if stream is not None]
    latencies = [ms / slow for stream, slow in zip(done, timer.slow)
                 for ms in stream.latencies_ms()]
    bench.put("request_ms_p50", stats.median(latencies))
    try:
        bench.put("request_ms_p99", stats.percentile(latencies, 99))
    except ValueError as refused:      # too few samples beyond p99
        bench.withheld["request_ms_p99"] = str(refused)
    bench.samples["request_ms"] = latencies
    bench.attempted = plan.passes * plan.block
    bench.failed = len(timer.errors) * plan.block
    return _join(streams + done)


def _traced_blocks(bench: Bench, service, source, blocks: list) -> Stream:
    """The traced measurement: after the warm-up blocks, alternate
    untraced and traced blocks of fresh chips; returns them as one."""
    plan = bench.plan
    with bench.phase("warmup_s"):
        streams = [serve_stream(service, source, block)
                   for block in blocks[:plan.warmup]]

    def block_stream(tracer=NO_TRACE, pass_id=None):
        streams.append(serve_stream(service, source, blocks[len(streams)],
                                    tracer=tracer, pass_id=pass_id))
        return streams[-1]

    layers.traced_passes(
        bench, Tracer(), block_stream, block_stream,
        lambda plain, spanned: not plain.errors() and not spanned.errors(),
        plan.block)
    bench.put("serve.submit_ms", stats.median(
        bench.tracer.per_op("serve.submit")) * 1e3)
    bench.put("scanpar.tiling.tile_ms_per_tile", stats.median(
        bench.tracer.per_op("scanpar.tiling.tile")) * 1e3)
    return _join(streams)


def _serve_probes(bench: Bench, model, compiled, source, served, snapshot,
                  max_batch: int) -> None:
    """Layer metrics of a traced run that no span gives: the service's
    own counters, and the engine called directly on the served chips."""
    from repro.robust import GuardedEngine
    from repro.serve import chip_key

    distinct = list(dict.fromkeys(served))
    chips = [np.asarray(source.tile(o), dtype=np.float32)
             for o in distinct[:8 * max_batch]]
    guarded = GuardedEngine(model)
    walls = []
    for s in range(0, len(chips) - max_batch + 1, max_batch):
        stack = np.stack(chips[s:s + max_batch])
        start = time.perf_counter()
        guarded.predict_batch(stack)
        walls.append(time.perf_counter() - start)
    bench.put("serve.direct_ms_per_tile", stats.median(walls) * 1e3 / max_batch)
    keyed = []
    for chip in chips:
        start = time.perf_counter()
        chip_key(chip)
        keyed.append(time.perf_counter() - start)
    bench.put("serve.chip_key_ms", stats.median(keyed) * 1e3)
    bench.put("serve.cache_hit_rate", snapshot["cache_hit_rate"])
    bench.put("serve.mean_batch_size", snapshot["mean_batch_size"])
    bench.put("serve.queue_depth_peak", snapshot["queue_depth_peak"])
    layers.batch1_metrics(bench, model, compiled,
                          chips[:bench.plan.probe_tiles],
                          fallbacks=sum(snapshot["fallback_by_reason"].values()))


def run(bench: Bench) -> None:
    from repro.scanpar import TileSource
    from repro.serve import BatchPolicy, InferenceService

    plan = bench.plan
    policy = BatchPolicy()
    model = bench.build_model()
    # The batcher cuts whatever is queued after max_wait_ms, so with
    # IN_FLIGHT requests out it runs every batch size up to IN_FLIGHT, and
    # the engine binds (and autotunes) each size the first time it sees
    # it: seconds per size.  That is set-up this service needs, so it is
    # done, and counted, here; the service itself then warms max_batch.
    compiled = bench.compile_engine(model, range(1, IN_FLIGHT + 1))
    with bench.phase("serve.start_s"):
        service = InferenceService(model, policy, backend="engine")
    try:
        bench.end_setup()
        scene = bench.make_scene()
        source = TileSource(scene.image, WINDOW)
        n_blocks = plan.warmup + (2 * plan.trace_passes if bench.trace
                                  else plan.passes)
        with bench.phase("gen.scene_s"):
            served, hot_slots = make_sequence(bench, n_blocks * plan.block)
        blocks = [served[s:s + plan.block]
                  for s in range(0, len(served), plan.block)]
        measure = _traced_blocks if bench.trace else _timed_blocks
        stream = measure(bench, service, source, blocks)
        served = [origin for block in blocks for origin in block]
        snapshot = service.metrics.snapshot()
    finally:
        service.shutdown()
    failures = len(stream.errors())
    bench.failed += failures + snapshot["rejected"] + snapshot["timeouts"]
    bench.info["service_metrics"] = snapshot

    with bench.phase("verify_s"):
        bench.check("no request rejected, timed out or failed",
                    bench.failed == 0, f"{failures} errors, "
                    f"{snapshot['rejected']} rejected, "
                    f"{snapshot['timeouts']} timeouts")
        bench.check("zero GuardedEngine fallbacks",
                    not snapshot["fallback_by_reason"],
                    str(snapshot["fallback_by_reason"]))
        repeats = len(hot_slots) - plan.hot
        bench.check("cache hits >= repeats - hot set",
                    snapshot["cache_hits"] >= repeats,
                    f"{snapshot['cache_hits']} hits, {repeats} repeats "
                    f"after the first visit of {plan.hot} hot chips")
        _check_results(bench, model, source, served, stream.results,
                       policy.max_batch)
    if bench.trace:
        _serve_probes(bench, model, compiled, source, served, snapshot,
                      policy.max_batch)
    bench.collect_info(compiled)


def _check_results(bench: Bench, model, source, served, results,
                   max_batch: int) -> None:
    """Served answers against ``GuardedEngine.predict_batch`` called
    directly, on a seeded sample of the distinct chips (checking all of
    them would double the run), and every repeat against the first answer
    for the same chip, which the cache must return unchanged."""
    from repro.robust import GuardedEngine

    first: dict = {}
    stale = 0
    for origin, result in zip(served, results):
        if isinstance(result, BaseException):
            continue
        seen = first.setdefault(origin, result)
        if seen is not result and not (
                seen.confidence == result.confidence
                and np.array_equal(seen.box, result.box)):
            stale += 1
    bench.check("every repeat returns its first answer", stale == 0,
                f"{stale} differ")

    chips = list(first)
    picks = [chips[i] for i in sample_indices(
        len(chips), 4 * max_batch, bench.seed + 2)]
    guarded = GuardedEngine(model)
    worst = 0.0
    for s in range(0, len(picks), max_batch):
        group = picks[s:s + max_batch]
        stack = np.stack([np.asarray(source.tile(o), dtype=np.float32)
                          for o in group])
        conf, boxes, _ = guarded.predict_batch(stack)
        for origin, c, b in zip(group, conf, boxes):
            got = first[origin]
            served_conf = got.confidence
            if bench.sabotage == "served_result" and origin == picks[0]:
                served_conf += 10 * RESULT_TOL
            worst = max(worst, abs(served_conf - float(c)),
                        float(np.abs(got.box - b).max()))
    bench.check("served results match direct GuardedEngine.predict_batch",
                worst <= RESULT_TOL,
                f"max gap {worst:.2e} over {len(picks)} chips")
