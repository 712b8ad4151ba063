"""IOS-scheduled engine execution vs the flat sequential program.

The compiled engine now runs each program through the IOS scheduler
(:mod:`repro.engine.sched`): per-step kernel costs are measured on the
bound program, the :mod:`repro.ios` DP partitions the step DAG into
stages of concurrent groups, and profitable schedules execute on a
shared thread pool with a stage-barrier arena plan.  This benchmark
gates the three contracts that optimization must keep:

* **byte identity** — scheduled output is bitwise equal to the
  sequential program on the deployment chip, both under the host's own
  schedule and under a forced maximally-parallel schedule (zero modeled
  overheads, 4-lane budget), so the concurrency machinery itself is
  exercised even on a single-core runner;
* **never slower** — end-to-end scheduled latency stays within 2% of
  sequential (paired same-round measurement).  On hosts where the DP
  declines parallelism this is exact program equality; where it
  schedules the SPP branches concurrently the ratio must not dip;
* **sticky schedule cache** — a second compile of the same program
  structure pays zero DP solves (pure cache hits) — the property the
  scan pool's ``sched.snapshot()``/``seed()`` shipping relies on.

On multi-core hosts an additional check reports the SPP-branch overlap
win of the forced-parallel schedule (absent from single-core baselines;
``check_regression`` treats it as new rather than failing).

Emits ``BENCH_ios_sched.json`` with a ``gates`` section tracked by
``check_regression.py``.

Usage::

    python benchmarks/bench_ios_sched.py [--repeats N] [--gate on|off]
                                         [--out PATH]

Also collectable by pytest (``pytest benchmarks/bench_ios_sched.py``).
"""

import os
import time

import numpy as np

from repro.arch import SPPNetConfig
from repro.detect import SPPNetDetector
from repro.engine import CompiledModel, sched

from gates import bench_arg_parser, check, finish

CHIP_SHAPE = (4, 100, 100)  # the paper's deployment chip: 100x100, 4 bands
NEVER_SLOWER_FLOOR = 0.98   # scheduled vs sequential latency ratio
BATCH = 8

ARCH = SPPNetConfig(name="ios-sched-bench")  # Table 1 default trunk


def make_chips(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n,) + CHIP_SHAPE).astype(np.float32)


def best_latency_ms(run, repeats: int, warmup: int = 2) -> float:
    for _ in range(warmup):
        run()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, (time.perf_counter() - start) * 1e3)
    return best


def paired_rounds(run_a, run_b, repeats: int,
                  rounds: int = 3) -> list[tuple[float, float]]:
    """Per-round best-of latency pairs (same convention as
    ``bench_engine``: the ratio gate uses the best same-round pair, so
    ambient load hits both sides equally)."""
    per_block = max(2, repeats // rounds)
    pairs = []
    for _ in range(rounds):
        a = best_latency_ms(run_a, per_block)
        b = best_latency_ms(run_b, per_block)
        pairs.append((a, b))
    return pairs


def bytes_equal(outs_a, outs_b) -> bool:
    return all(a.tobytes() == b.tobytes() for a, b in zip(outs_a, outs_b))


def forced_parallel_report(model, batch: np.ndarray, chip: np.ndarray,
                           seq_out, repeats: int) -> dict:
    """Byte-identity (and overlap latency) under a forced maximally
    parallel schedule: zero modeled overheads and a 4-lane budget make
    the DP schedule the SPP pyramid's branches concurrently on any
    host, so the staged executor and stage-barrier arena are exercised
    even where the honest cost model would decline."""
    saved = (sched.DISPATCH_US, sched.SYNC_US,
             os.environ.get(sched.ENV_WORKERS))
    sched.DISPATCH_US = sched.SYNC_US = 0.0
    os.environ[sched.ENV_WORKERS] = "4"
    try:
        compiled = CompiledModel(model, CHIP_SHAPE, schedule=True)
        out = compiled(batch)
        plan = compiled.schedule_for(BATCH, CHIP_SHAPE)
        # time the same single chip the paired rounds use, so the
        # overlap check compares like units with sequential_ms
        latency_ms = best_latency_ms(lambda: compiled(chip), repeats)
        return {
            "matches_sequential": bytes_equal(seq_out, out),
            "max_parallelism": plan.max_parallelism,
            "stages": plan.stage_groups(),
            "latency_ms": latency_ms,
        }
    finally:
        sched.DISPATCH_US, sched.SYNC_US, workers = saved
        if workers is None:
            os.environ.pop(sched.ENV_WORKERS, None)
        else:
            os.environ[sched.ENV_WORKERS] = workers


def run_benchmark(repeats: int = 12) -> dict:
    sched.clear_cache()
    model = SPPNetDetector(ARCH, seed=0)
    model.eval()
    chip = make_chips(1)
    batch = make_chips(BATCH, seed=1)

    sequential = CompiledModel(model, CHIP_SHAPE, schedule=False)
    scheduled = CompiledModel(model, CHIP_SHAPE, schedule=True)
    scheduled.warmup([1, BATCH])
    first = sched.stats()

    # Second compile of the same program structure: the sticky cache
    # must answer every schedule lookup (zero DP solves) — the same
    # contract seeded scan-pool workers rely on.
    model2 = SPPNetDetector(ARCH, seed=3)
    model2.eval()
    scheduled2 = CompiledModel(model2, CHIP_SHAPE, schedule=True)
    scheduled2.warmup([1, BATCH])
    second = sched.stats()

    seq_out = sequential(batch)
    matches = bytes_equal(seq_out, scheduled(batch))

    rounds = paired_rounds(lambda: sequential(chip),
                           lambda: scheduled(chip), repeats,
                           rounds=max(3, min(8, repeats // 3)))
    seq_ms, sched_ms = max(rounds, key=lambda ab: ab[0] / ab[1])

    plan = scheduled.schedule_for(BATCH, CHIP_SHAPE)
    forced = forced_parallel_report(model, batch, chip, seq_out, repeats)

    return {
        "benchmark": "ios_sched",
        "model": ARCH.name,
        "chip_shape": list(CHIP_SHAPE),
        "cpu_count": os.cpu_count(),
        "schedule_workers": sched.schedule_workers(),
        "dispatch_us": sched.DISPATCH_US,
        "sync_us": sched.SYNC_US,
        "never_slower_floor": NEVER_SLOWER_FLOOR,
        "sequential_ms": seq_ms,
        "scheduled_ms": sched_ms,
        "sched_vs_seq_speedup": seq_ms / sched_ms,
        "latency_rounds_ms": [[a, b] for a, b in rounds],
        "scheduled_matches_sequential": matches,
        "schedule": {
            "strategy": plan.strategy,
            "max_parallelism": plan.max_parallelism,
            "num_stages": plan.num_stages,
            "stages": plan.stage_groups(),
        },
        "solver": {
            "first_compile_solves": first["solves"],
            "first_compile_solve_ms": first["solve_ms"],
            "second_compile_solves": second["solves"] - first["solves"],
            "second_compile_hits": second["hits"] - first["hits"],
        },
        "forced_parallel": forced,
    }


def payload_checks(payload: dict) -> list:
    solver = payload["solver"]
    checks = [
        check("scheduled_matches_sequential",
              payload["scheduled_matches_sequential"], "bool"),
        check("forced_parallel_matches_sequential",
              payload["forced_parallel"]["matches_sequential"], "bool"),
        check("forced_parallel_schedules_spp_branches",
              payload["forced_parallel"]["max_parallelism"] > 1, "bool"),
        check("sched_vs_seq_speedup", payload["sched_vs_seq_speedup"],
              ">=", NEVER_SLOWER_FLOOR),
        check("first_compile_solves_schedules",
              solver["first_compile_solves"] >= 1, "bool"),
        check("second_compile_dp_solves",
              solver["second_compile_solves"], "<=", 0, track=False),
        check("second_compile_cache_hits",
              solver["second_compile_hits"], ">=", 1, track=False),
    ]
    if (payload["cpu_count"] or 1) >= 2:
        # SPP-branch overlap on a genuinely parallel host: the forced
        # schedule's wall clock must not lose to sequential (absent
        # from single-core baselines — appears as a new check there).
        checks.append(
            check("spp_branch_overlap_speedup",
                  payload["sequential_ms"]
                  / payload["forced_parallel"]["latency_ms"],
                  ">=", 0.9, track=False))
    return checks


def test_ios_sched_gates():
    """Acceptance: scheduled execution bitwise-equal to sequential
    (host and forced-parallel schedules), never slower than the flat
    program, and schedule solving paid exactly once per structure."""
    payload = run_benchmark(repeats=8)
    failures = [c.failure_message() for c in payload_checks(payload)
                if not c.passed]
    assert failures == []


def main() -> None:
    parser = bench_arg_parser(__doc__, "BENCH_ios_sched.json")
    parser.add_argument("--repeats", type=int, default=24,
                        help="timed passes per measurement (best-of)")
    args = parser.parse_args()

    payload = run_benchmark(args.repeats)

    plan = payload["schedule"]
    print(f"sequential : {payload['sequential_ms']:7.2f} ms/chip")
    print(f"scheduled  : {payload['scheduled_ms']:7.2f} ms/chip  "
          f"({payload['sched_vs_seq_speedup']:.3f}x, "
          f"bitwise match {payload['scheduled_matches_sequential']})")
    print(f"schedule   : {plan['strategy']}  stages={plan['num_stages']}  "
          f"max_parallelism={plan['max_parallelism']}")
    solver = payload["solver"]
    print(f"solver     : {solver['first_compile_solves']} solves "
          f"({solver['first_compile_solve_ms']:.1f} ms) first compile, "
          f"{solver['second_compile_solves']} second "
          f"({solver['second_compile_hits']} cache hits)")
    forced = payload["forced_parallel"]
    print(f"forced ||  : max_parallelism={forced['max_parallelism']}  "
          f"{forced['latency_ms']:.2f} ms/chip  "
          f"bitwise match {forced['matches_sequential']} -> {args.out}")

    finish(payload, payload_checks(payload), args.out,
           enforce=args.gate == "on")


if __name__ == "__main__":
    main()
