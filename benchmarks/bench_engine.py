"""Compiled inference engine vs eager autograd on the deployment chip.

The paper's Table 2 latency story hinges on single-image inference cost
for the 100x100x4 NAIP chip.  This benchmark compiles the default
SPP-Net with :func:`repro.engine.compile` (traced graph, fused
conv+relu+pool kernels, planned buffer arena) and compares it against
the eager ``predict`` path on exactly that shape, recording:

* the per-layer kernel choices, and the per-layer ``im2col`` vs
  ``im2col_tiled`` table measured on ``bind_conv`` — the evidence
  behind ``repro.engine.kernels.TILED_MAX_DEPTH``;
* the kernel-category breakdown (sub-step phases are attributed
  honestly: im2col gathers count as memops, fused pooling as pooling);
* the batch sweep — ms/tile of the four Table-1 models at batch 1, 4,
  8 and 20, stored as absolute numbers (with each cell's planned arena
  bytes) next to the machine fingerprint.  The engine runs the conv
  trunk one sample at a time and only the FC head at the full batch, so
  a tile must not cost more at batch 20 than at batch 1 — the gate that
  keeps a batch-sized trunk from coming back;
* the memory planner's arena statistics;
* ``head_ms_by_rows`` (info, not gated): the NAS winner's FC head pass
  at 4, 8 and 20 rows, the row counts heads run at — the measurement
  behind the linear kernel's ``(out, in)`` weight layout;
* ``read_extent`` and ``trunk_ms_full_vs_read`` (info, not gated): the
  top-left pixels of the 100 px chip each Table-1 model's outputs read,
  and the NAS winner's one-sample trunk bound at the whole chip against
  the trunk the engine binds, at that extent.

Emits ``BENCH_engine.json`` with a machine-readable ``gates`` section
(see ``gates.py``) that ``check_regression.py`` tracks run over run.

Usage::

    python benchmarks/bench_engine.py [--repeats N] [--gate on|off]
                                      [--out PATH]

Also collectable by pytest (``pytest benchmarks/bench_engine.py``).
"""

import time

import numpy as np

from repro.arch import SPPNetConfig, TABLE1_MODELS
from repro.detect import SPPNetDetector, predict
from repro.engine import CONV_VARIANTS, conv_variant
from repro.engine import compile as engine_compile
from repro.engine.compiled import _Program
from repro.engine.kernels import (
    bind_conv,
    conv_out_hw,
    conv_scratch_elems,
    pack_conv_weight,
)

from e2e import host, stats
from gates import bench_arg_parser, check, finish

CHIP_SHAPE = (4, 100, 100)  # the paper's deployment chip: 100x100, 4 bands
# Compiled vs eager on a single chip.  The median of paired ratios read
# 3.0-3.4x over four runs on the 2-core reference box (interval lows
# down to 2.7); the retired best-of-rounds statistic reported 9x from
# one round where eager was still cold.  Eager is timed on the float64
# twin (see ``float64_twin``), so the ratio keeps measuring the engine
# against the float64 autograd path it was gated on.
SPEEDUP_GATE = 2.5
WARMUP_PAIRS = 3
# The convs are GEMM-bound at BLAS peak on this box, so they *should*
# dominate; the share gates catch attribution drift instead — conv
# creeping past 0.85 or the overhead categories (gathers/staging,
# fused pooling) outgrowing their ceilings both mean a kernel
# regressed, not that the model changed.  memops is mostly the column
# gathers of the two deep ``im2col`` layers: 9-10% here.
CONV_SHARE_CEILING = 0.85
MEMOPS_SHARE_CEILING = 0.15
POOLING_SHARE_CEILING = 0.10

SWEEP_BATCHES = (1, 4, 8, 20)
HEAD_PASS_ROWS = (4, 8, 20)

ARCH = SPPNetConfig(name="engine-bench")  # Table 1 default trunk
NAS_WINNER = TABLE1_MODELS["SPP-Net #3"]


def float64_twin(model: SPPNetDetector) -> SPPNetDetector:
    """``model`` with its float32 parameters widened to float64, so eager
    ``predict`` (which runs in the weights' dtype) runs in float64."""
    twin = SPPNetDetector(model.config, seed=0).eval()
    twin.load_state_dict(model.state_dict())
    for p in twin.parameters():
        p.data = p.data.astype(np.float64)
    return twin


def make_chips(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n,) + CHIP_SHAPE).astype(np.float32)


def timed_ms(run) -> float:
    start = time.perf_counter()
    run()
    return (time.perf_counter() - start) * 1e3


def paired_latencies(run_a, run_b, pairs: int) -> list[tuple[float, float]]:
    """``pairs`` back-to-back (a, b) latencies after a discarded warm-up.

    The speedup gate divides the two latencies, so ambient load on a
    shared runner must hit both sides equally: each pair times one side
    immediately after the other, and the gate statistic is the median of
    the per-pair ratios — a fixed sample count, no best-of, no
    resample-until-pass.
    """
    samples = [(timed_ms(run_a), timed_ms(run_b))
               for _ in range(WARMUP_PAIRS + pairs)]
    return stats.discard_warmup(samples, WARMUP_PAIRS)


# (label, h, w, c_in, out_channels, kernel): the first conv across the
# NAS kernel axis on the 100 px chip, then the two deep layers at the
# sizes the k=3 trunk feeds them.
LAYERS = [(f"conv1 4->64 k={k}", 100, 100, 4, 64, k) for k in (1, 3, 5, 7, 9)]
LAYERS += [("conv2 64->128 k=3", 49, 49, 64, 128, 3),
           ("conv3 128->256 k=3", 23, 23, 128, 256, 3)]
LAYER_BATCHES = (1, 8, 20)


def bound_layer(variant, batch, h, w, c_in, f, k):
    """One conv(+bias+relu+2x2 pool) kernel on standalone buffers."""
    rng = np.random.default_rng(0)
    dtype = np.dtype(np.float32)
    src = rng.standard_normal((batch, h, w, c_in)).astype(dtype)
    weight = rng.standard_normal((f, c_in, k, k)).astype(dtype)
    bias = rng.standard_normal(f).astype(dtype)
    ho, wo = conv_out_hw(h, w, k, 1, 0)
    out = np.empty((batch, ho // 2, wo // 2, f), dtype=dtype)
    scratch = np.empty(batch * conv_scratch_elems(
        variant, batch=batch, h=h, w=w, c_in=c_in, out_channels=f, kernel=k,
        stride=1, padding=0, bias=True, pool=True), dtype=dtype)
    return bind_conv(variant, src=src, out=out, scratch=scratch, k=k,
                     stride=1, pad=0, relu=True, pool=(2, 2),
                     w_pack=pack_conv_weight(weight, bias, dtype))


def layer_table(rounds: int) -> list[dict]:
    """Per-layer ms/tile of each conv kernel, variants interleaved per
    round, and the median paired ratio of ``im2col_tiled`` to ``im2col``."""
    rows = []
    for label, h, w, c_in, f, k in LAYERS:
        for batch in LAYER_BATCHES:
            kernels = {v: bound_layer(v, batch, h, w, c_in, f, k)
                       for v in CONV_VARIANTS}
            samples = stats.discard_warmup(
                [{v: timed_ms(fn) for v, fn in kernels.items()}
                 for _ in range(1 + rounds)], 1)
            rows.append({
                "layer": label, "gemm_depth": c_in * k * k, "batch": batch,
                "selected": conv_variant(c_in, k),
                "ms_per_tile": {
                    v: stats.median([s[v] for s in samples]) / batch
                    for v in CONV_VARIANTS},
                "tiled_over_im2col": stats.median(
                    [s["im2col_tiled"] / s["im2col"] for s in samples]),
            })
    return rows


def batch_sweep(rounds: int) -> dict:
    """ms/tile per (model, batch) cell: every cell once per round
    so drift over the run falls on all of them, each cell timed over the
    same stream of tiles cut into its batch size (so a small batch is not
    charged the round's one cold start per tile), median and bootstrap
    interval over the rounds after one discarded warm-up round."""
    cells: dict[tuple[str, int], object] = {}
    top = max(SWEEP_BATCHES)
    chips = make_chips(top, seed=21)
    for name, config in TABLE1_MODELS.items():
        compiled = engine_compile(SPPNetDetector(config, seed=0).eval())
        for batch in SWEEP_BATCHES:
            cells[name, batch] = compiled
    for (_, batch), compiled in cells.items():
        compiled.warmup([batch])

    def stream_ms_per_tile(compiled, batch: int) -> float:
        calls = -(-top // batch)
        stack = chips[:batch]
        return timed_ms(lambda: [compiled(stack) for _ in range(calls)]) \
            / (calls * batch)

    samples = stats.discard_warmup(
        [{cell: stream_ms_per_tile(compiled, cell[1])
          for cell, compiled in cells.items()}
         for _ in range(1 + rounds)], 1)

    def paired(top_cell, bottom_cell) -> float:
        return stats.median([s[top_cell] / s[bottom_cell] for s in samples])

    columns = {cell: [s[cell] for s in samples] for cell in cells}
    return {
        "rounds": rounds,
        "rows": [{
            "model": name, "batch": batch,
            "ms_per_tile": stats.median(column),
            "interval95": list(stats.bootstrap_median_interval(column)),
            "planned_peak_bytes":
                cells[name, batch].planned_peak_bytes(batch),
        } for (name, batch), column in columns.items()],
        "batch20_over_batch1": {
            name: paired((name, top), (name, 1)) for name in TABLE1_MODELS},
    }


def head_ms_by_rows(rounds: int) -> dict[str, float]:
    """ms per pass of the NAS winner's head bound at each of
    ``HEAD_PASS_ROWS``: feed the gathered rows, run its linear layers.
    Row counts interleaved per round, median over the rounds after one
    discarded warm-up round."""
    compiled = engine_compile(SPPNetDetector(NAS_WINNER, seed=0).eval())
    rng = np.random.default_rng(5)
    heads = {}
    for rows in HEAD_PASS_ROWS:
        head = compiled._head_for(rows, CHIP_SHAPE)
        (view,) = head._inputs
        heads[rows] = head, np.maximum(
            rng.standard_normal(view.shape), 0.0).astype(view.dtype)

    def one_pass(head, rows) -> None:
        head.feed(rows)     # a head's first linear writes over its input
        head.execute()

    samples = stats.discard_warmup(
        [{rows: timed_ms(lambda: one_pass(*heads[rows]))
          for rows in HEAD_PASS_ROWS} for _ in range(1 + rounds)], 1)
    return {str(rows): stats.median([s[rows] for s in samples])
            for rows in HEAD_PASS_ROWS}


def trunk_ms_full_vs_read(rounds: int) -> dict[str, float]:
    """ms per run of the NAS winner's one-sample trunk bound at the
    whole 100 px chip and at its read extent (what the engine binds),
    fed the same chip: the two interleaved per round, medians over the
    rounds after one discarded warm-up round, and the median of the
    per-round ratios."""
    compiled = engine_compile(SPPNetDetector(NAS_WINNER, seed=0).eval())
    steps, boundary, _ = compiled._split_for(CHIP_SHAPE)
    trunks = {"full": _Program(steps, boundary, 1, compiled.dtype,
                               compiled._packed),
              "read": compiled._trunk_for(CHIP_SHAPE)}
    chip = make_chips(1, seed=3)

    def one_run(trunk) -> None:
        trunk.feed(chip)
        trunk.execute()

    samples = stats.discard_warmup(
        [{side: timed_ms(lambda: one_run(trunk))
          for side, trunk in trunks.items()} for _ in range(1 + rounds)], 1)
    return {"full_ms": stats.median([s["full"] for s in samples]),
            "read_ms": stats.median([s["read"] for s in samples]),
            "read_over_full": stats.median(
                [s["read"] / s["full"] for s in samples])}


def run_benchmark(repeats: int = 10) -> dict:
    model = SPPNetDetector(ARCH, seed=0)
    model.eval()
    chip = make_chips(1)
    compiled = engine_compile(model)

    eager_model = float64_twin(model)
    pairs = paired_latencies(lambda: predict(eager_model, chip, batch_size=1),
                             lambda: compiled(chip), repeats)
    ratios = [eager / engine for eager, engine in pairs]
    eager_ms = stats.median([eager for eager, _ in pairs])
    engine_ms = stats.median([engine for _, engine in pairs])

    # Output equivalence on a fresh batch (fp32 engine vs fp64 eager).
    batch = make_chips(4, seed=1)
    conf, boxes = predict(eager_model, batch)
    eng_conf, eng_boxes = predict(model, batch, backend="engine")
    max_err = max(float(np.abs(eng_conf - conf).max()),
                  float(np.abs(eng_boxes - boxes).max()))

    plan = compiled.memory_plan(batch=1)
    profile = compiled.profile(chip, repeats=repeats)
    shares = {name: row["share"]
              for name, row in profile["categories"].items()}

    return {
        "benchmark": "engine",
        "model": ARCH.name,
        "chip_shape": list(CHIP_SHAPE),
        "speedup_gate": SPEEDUP_GATE,
        "eager_ms": eager_ms,
        "engine_ms": engine_ms,
        "speedup": stats.median(ratios),
        "speedup_interval95": list(stats.bootstrap_median_interval(ratios)),
        "latency_pairs_ms": [[a, b] for a, b in pairs],
        "max_abs_error_vs_eager": max_err,
        "fused_step_kinds": compiled.fused_step_kinds(),
        "kernel_choices": compiled.kernel_choices(batch=1),
        "layer_table": layer_table(rounds=max(5, repeats // 2)),
        "kernel_categories": profile["categories"],
        "category_shares": shares,
        "head_ms_by_rows": head_ms_by_rows(rounds=max(10, 2 * repeats)),
        "read_extent": {
            name: list(engine_compile(SPPNetDetector(config, seed=0).eval())
                       .read_extent(CHIP_SHAPE))
            for name, config in TABLE1_MODELS.items()},
        "trunk_ms_full_vs_read": trunk_ms_full_vs_read(
            rounds=max(10, 2 * repeats)),
        "absolute": {
            "fingerprint": host.fingerprint(),
            "machine": host.machine_info(),
            "engine_ms": engine_ms,
            "eager_ms": eager_ms,
            "planned_peak_bytes": {
                str(b): compiled.planned_peak_bytes(b) for b in SWEEP_BATCHES},
            "batch_sweep": batch_sweep(rounds=max(5, repeats // 2)),
        },
        "memory_plan": {
            "planned_peak_bytes": plan.peak_bytes,
            "naive_bytes": plan.naive_bytes,
            "reuse_factor": plan.reuse_factor,
            "arena_slots": len(plan.slot_sizes),
        },
    }


def payload_checks(payload: dict) -> list:
    return [
        check("engine_speedup_vs_eager", payload["speedup"],
              ">=", SPEEDUP_GATE),
        # Any kernel change legally moves the low-order bits, so the
        # absolute error is gated but not tracked run over run.
        check("max_abs_error_vs_eager", payload["max_abs_error_vs_eager"],
              "<=", 1e-5, track=False),
        # Gated against its absolute ceiling, not drift-tracked: the
        # share moves with the host's GEMM-to-memory-bandwidth ratio.
        check("conv_share_of_engine_time",
              payload["category_shares"].get("conv", 0.0),
              "<=", CONV_SHARE_CEILING, track=False),
        # Micro-shares (a few % of engine time) swing more than 10%
        # relatively between runs from timer noise alone, so they are
        # gated against their absolute ceilings but not drift-tracked.
        check("memops_share_of_engine_time",
              payload["category_shares"].get("memops", 0.0),
              "<=", MEMOPS_SHARE_CEILING, track=False),
        check("pooling_share_of_engine_time",
              payload["category_shares"].get("pooling", 0.0),
              "<=", POOLING_SHARE_CEILING, track=False),
        check("arena_reuse_factor",
              payload["memory_plan"]["reuse_factor"], ">=", 1.2),
        # Depth-first execution: the trunk's working set must not grow
        # with the batch.  Median of per-round batch-20 / batch-1
        # ms/tile on the NAS winner: 0.72-0.88 on the reference box
        # (batch 1 pays the FC weight stream per tile), 1.02 when the
        # whole program was bound at the batch.  Not drift-tracked: the
        # run-to-run range is wider than the tracker's 10%.
        check("batch20_over_batch1_ms_per_tile",
              payload["absolute"]["batch_sweep"]["batch20_over_batch1"][
                  NAS_WINNER.name], "<=", 1.0, track=False),
    ]


def test_engine_meets_speedup_gate():
    """Acceptance: compiled single-chip inference clears SPEEDUP_GATE
    over eager (median of paired ratios) on the 100x100x4 deployment
    shape, equivalent outputs, conv share within
    the attribution ceiling, and a tile no dearer at batch 20 than at
    1."""
    payload = run_benchmark(repeats=12)
    failures = [c.failure_message() for c in payload_checks(payload)
                if not c.passed]
    assert failures == []


def main() -> None:
    parser = bench_arg_parser(__doc__, "BENCH_engine.json")
    parser.add_argument("--repeats", type=int, default=24,
                        help="timed eager/engine pairs (the gate is the "
                        "median of their ratios) and profile passes")
    args = parser.parse_args()

    payload = run_benchmark(args.repeats)

    print(f"eager  : {payload['eager_ms']:7.2f} ms/chip")
    lo, hi = payload["speedup_interval95"]
    print(f"engine : {payload['engine_ms']:7.2f} ms/chip  "
          f"({payload['speedup']:.2f}x median of paired ratios, 95% "
          f"[{lo:.2f}, {hi:.2f}], max err "
          f"{payload['max_abs_error_vs_eager']:.1e})")
    print(f"kernels: {payload['kernel_choices']}")
    print("  layer (ms/tile)      depth batch   im2col    tiled  "
          "tiled/im2col  selected")
    for row in payload["layer_table"]:
        ms = row["ms_per_tile"]
        print(f"  {row['layer']:<19s} {row['gemm_depth']:5d} "
              f"{row['batch']:5d} {ms['im2col']:8.3f} "
              f"{ms['im2col_tiled']:8.3f} {row['tiled_over_im2col']:10.2f}"
              f"    {row['selected']}")
    for name, row in payload["kernel_categories"].items():
        print(f"  {name:<12s} {row['ms'] / args.repeats:6.2f} ms  "
              f"{100 * row['share']:5.1f}%")
    print(f"  {NAS_WINNER.name} head pass (ms): " + ", ".join(
        f"{rows} rows {ms:.2f}"
        for rows, ms in payload["head_ms_by_rows"].items()))
    print("  read extent of the 100 px chip: " + ", ".join(
        f"{name} {h}x{w}" + (f" ({reason})" if reason else "")
        for name, (h, w, reason) in payload["read_extent"].items()))
    trunk = payload["trunk_ms_full_vs_read"]
    print(f"  {NAS_WINNER.name} one-sample trunk (ms): 100 px "
          f"{trunk['full_ms']:.2f}, read extent {trunk['read_ms']:.2f} "
          f"({trunk['read_over_full']:.2f}x)")
    sweep = payload["absolute"]["batch_sweep"]
    print(f"  batch sweep (ms/tile, median of {sweep['rounds']} rounds "
          f"[95% interval]) on {payload['absolute']['fingerprint']}")
    for row in sweep["rows"]:
        lo, hi = row["interval95"]
        print(f"  {row['model']:<17s} {row['batch']:3d}  "
              f"{row['ms_per_tile']:6.2f} [{lo:.2f}, {hi:.2f}]  "
              f"{row['planned_peak_bytes'] / 1e6:6.2f} MB arena")
    print("  batch 20 / batch 1: " + ", ".join(
        f"{name} {ratio:.2f}"
        for name, ratio in sweep["batch20_over_batch1"].items()))
    mem = payload["memory_plan"]
    print(f"arena  : {mem['planned_peak_bytes'] / 1e6:.2f} MB planned peak "
          f"vs {mem['naive_bytes'] / 1e6:.2f} MB naive "
          f"({mem['reuse_factor']:.2f}x reuse) -> {args.out}")

    finish(payload, payload_checks(payload), args.out,
           enforce=args.gate == "on")


if __name__ == "__main__":
    main()
