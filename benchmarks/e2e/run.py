"""bench_e2e: scene -> NMS'd detections, end to end and layer by layer.

    python3 benchmarks/e2e/run.py --workload scan_seq --seed 1 --seconds 12 --trace 0
    python3 benchmarks/e2e/run.py --workload scan_seq --seed 1 --seconds 12 --trace 1
    python3 benchmarks/e2e/run.py set --out A.json --seed 1 --runs 3
    python3 benchmarks/e2e/run.py agree A.json B.json

A run builds its inputs from ``--seed``, drives ``repro`` through its
public entry points only, checks the outputs, prints every metric by
name with its unit, and ends with one JSON line (``correct``,
``attempted``, ``failed``, ``metrics``).  See README.md beside this file.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()      # set-up time is counted from here

import argparse
import importlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE.parent) not in sys.path:
    sys.path.insert(0, str(HERE.parent))

from e2e import harness  # noqa: E402
from e2e.agree import agree_main  # noqa: E402


def run_workload(args) -> int:
    from e2e import metrics

    harness.ensure_repro_importable()
    import repro  # noqa: F401  (absent: not a checkout of the program, fail)
    from repro.scanpar import shutdown_pools

    bench = harness.Bench(workload=args.workload, seed=args.seed,
                          seconds=args.seconds, trace=bool(args.trace),
                          tiny=args.tiny, started=_STARTED,
                          sabotage=args.sabotage)
    try:
        importlib.import_module(f"e2e.{args.workload}").run(bench)
    finally:
        shutdown_pools()
        bench.cleanup()

    if bench.trace:
        bench.put("verify_s", bench.timers["verify_s"])
    result = bench.result()
    result["metrics"], result["scoped"] = metrics.split(
        bench.metrics, bench.workload, int(bench.trace), bench.withheld)

    print(f"# {bench.workload} seed={bench.seed} trace={int(bench.trace)} "
          f"ops={bench.attempted} ops_failed={bench.failed} "
          f"fingerprint={result['fingerprint']}")
    for check in bench.checks:
        print(f"# check {'ok  ' if check['ok'] else 'FAIL'} {check['name']}"
              + (f" ({check['detail']})" if check["detail"] else ""))
    for name, reason in bench.withheld.items():
        print(f"# withheld {name}: {reason}")
    if not bench.trace:     # for readers; not metrics
        print(f"# tiles_per_s {1e3 / bench.metrics['ms_per_tile']:.6g} 1/s")
        print(f"# setup_wall_s {bench.timers['setup_wall_s']:.6g} s")
    for group in ("metrics", "scoped"):
        for name, entry in result[group].items():
            print(f"{name} {entry['value']:.6g} {entry['unit']}")

    out = Path(args.out) if args.out else harness.OUT / (
        f"result_{bench.workload}_seed{bench.seed}_trace{int(bench.trace)}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1, default=str))
    if bench.tracer is not None:
        bench.tracer.write_chrome(
            harness.OUT / f"trace_{bench.workload}.json",
            {"workload": bench.workload, "seed": bench.seed})

    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] and bench.failed == 0 else 1


def run_set(args) -> int:
    """One result set: ``--runs`` fresh-process runs of every workload,
    interleaved by workload so drift spreads over all of them."""
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    results = []
    for index in range(args.runs):
        for workload in workloads:
            out = harness.OUT / f"set_{workload}_{index}.json"
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(seconds),
                   "--trace", str(args.trace), "--out", str(out)]
            started = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            print(f"{workload} run {index}: exit {proc.returncode} in "
                  f"{time.perf_counter() - started:.1f}s", flush=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
                return proc.returncode
            result = json.loads(out.read_text())
            result["samples"].pop("request_ms", None)   # 1000s of floats
            results.append(result)
            out.unlink()
    Path(args.out).write_text(json.dumps(results, indent=1))
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "agree":
        return agree_main(argv[1:])
    if argv and argv[0] == "set":
        parser = argparse.ArgumentParser(prog="run.py set")
        parser.add_argument("--out", required=True)
        parser.add_argument("--seed", type=int, default=1)
        parser.add_argument("--runs", type=int, default=3)
        parser.add_argument("--seconds", type=float, default=None)
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        parser.add_argument("--workloads", nargs="+", choices=harness.WORKLOADS,
                            help="default: the workloads BENCHMARK.json lists")
        return run_set(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke size: scene 300, 3 passes, 200 chips")
    parser.add_argument("--out", default=None,
                        help="where the full result JSON goes")
    parser.add_argument("--sabotage", default=None, help=argparse.SUPPRESS)
    return run_workload(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
