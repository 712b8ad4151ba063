"""Resilience gate: faulty sweeps finish, serving answers or fails loudly.

Two scenarios, both with deterministic injected faults (``tests.faults``):

1. **NAS sweep under 20% trial failures** — an ``Experiment(workers=4)``
   whose evaluator fails 20% of calls must still complete every trial
   (retry + quarantine) and pick the same winner as the fault-free sweep
   with the same seed.  This is the CI gate.
2. **Serving through an engine outage** — an ``InferenceService`` whose
   compiled engine fails hard (``tests.faults.FaultyEngine``) must keep
   answering cached chips, fail an uncached one with the engine's own
   error, and answer the first request after the outage at once.

Emits ``BENCH_resilience.json`` so fault-tolerance telemetry is recorded
run over run.

Usage::

    python benchmarks/bench_resilience.py [--trials N] [--rate R] [--out PATH]

Also collectable by pytest (``pytest benchmarks/bench_resilience.py``).
"""

import sys
import time
from pathlib import Path

import numpy as np

from gates import bench_arg_parser, check, finish

from repro.arch import ConvSpec, PoolSpec, SPPNetConfig
from repro.detect import SPPNetDetector
from repro.nas import (
    Experiment,
    FunctionalEvaluator,
    RetryPolicy,
    sppnet_search_space,
)
from repro.serve import BatchPolicy, InferenceService

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.faults import FaultyEngine, Flaky, InjectedFault

ARCH = SPPNetConfig(
    convs=(ConvSpec(8, 3, 1),), pools=(PoolSpec(2, 2),),
    spp_levels=(2, 1), fc_sizes=(32,), name="resilience-bench",
)


def objective(sample) -> float:
    """Cheap deterministic stand-in for trial training."""
    return sample["fc_width"] / 8192 + sample["spp_first_level"] / 100


def run_nas_scenario(max_trials: int = 16, rate: float = 0.2,
                     seed: int = 4) -> dict:
    clean = Experiment(
        sppnet_search_space(), FunctionalEvaluator(objective),
        max_trials=max_trials, workers=4, seed=seed)
    clean.run()

    # 6 attempts: P(a trial exhausting them at rate 0.2) ~ 6e-5
    flaky = Flaky(objective, rate=rate, seed=17)
    start = time.perf_counter()
    faulty = Experiment(
        sppnet_search_space(), FunctionalEvaluator(flaky),
        max_trials=max_trials, workers=4, seed=seed,
        retry_policy=RetryPolicy(max_attempts=6, backoff_s=0.001,
                                 max_backoff_s=0.01))
    faulty.run()
    elapsed = time.perf_counter() - start

    winner_match = (clean.best().sample == faulty.best().sample)
    return {
        "max_trials": max_trials,
        "injected_failure_rate": rate,
        "evaluator_calls": flaky.calls,
        "injected_faults": flaky.faults,
        "completed_trials": len(faulty.trials),
        "quarantined_trials": len(faulty.failed()),
        "retried_trials": sum(1 for t in faulty.trials if t.attempts > 1),
        "winner_matches_fault_free": winner_match,
        "sweep_wall_clock_s": elapsed,
    }


def run_serve_scenario() -> dict:
    model = SPPNetDetector(ARCH, seed=0)
    rng = np.random.default_rng(0)
    chips = rng.normal(size=(8, 4, 24, 24)).astype(np.float32)
    faulty = FaultyEngine(model)
    outage_failures = 0
    outage_hit = outage_miss = False

    with InferenceService(faulty, BatchPolicy(max_batch=4),
                          max_batch_retries=0) as service:
        service.submit(chips[0]).result(timeout=10)  # healthy + cached

        # outage: the next three batches fail, the uncached request's too
        faulty.failures = 3
        for chip in chips[1:3]:
            try:
                service.submit(chip).result(timeout=10)
            except InjectedFault:
                outage_failures += 1

        try:  # the cached chip is answered from the cache
            outage_hit = service.submit(chips[0]).result(timeout=10).cached
        except Exception:
            pass
        try:  # an uncached one fails with the engine's own error
            service.submit(chips[3]).result(timeout=10)
        except InjectedFault:
            outage_miss = True
        except Exception:
            pass

        # the outage is over: the next batch runs on the engine, no sleep
        answer = service.submit(chips[4]).result(timeout=10)
        recovered = not answer.cached and np.isfinite(answer.confidence)
        snapshot = service.metrics.snapshot()

    return {
        "outage_failures": outage_failures,
        "outage_cache_hit_served": bool(outage_hit),
        "outage_miss_raises_engine_error": outage_miss,
        "recovered_after_outage": bool(recovered),
        "recovered_confidence": float(answer.confidence),
        "metrics": snapshot,
    }


def run_benchmark(max_trials: int = 16, rate: float = 0.2) -> dict:
    return {
        "benchmark": "resilience",
        "nas": run_nas_scenario(max_trials=max_trials, rate=rate),
        "serve": run_serve_scenario(),
    }


def payload_checks(payload: dict) -> list:
    nas = payload["nas"]
    serve = payload["serve"]
    metrics = serve["metrics"]
    return [
        check("nas_faults_injected", nas["injected_faults"], ">=", 1,
              track=False),
        check("nas_completed_trials", nas["completed_trials"],
              ">=", nas["max_trials"]),
        check("nas_winner_matches_fault_free",
              nas["winner_matches_fault_free"], "bool"),
        check("serve_outage_cache_hit_served",
              serve["outage_cache_hit_served"], "bool"),
        check("serve_outage_miss_raises_engine_error",
              serve["outage_miss_raises_engine_error"], "bool"),
        check("serve_recovered_after_outage",
              serve["recovered_after_outage"], "bool"),
    ]


def test_faulty_sweep_completes_and_matches_fault_free_winner():
    """Acceptance: 20% injected trial failures — every trial completes
    (retried or quarantined) and best() matches the fault-free winner."""
    payload = run_nas_scenario(max_trials=16, rate=0.2)
    assert payload["injected_faults"] > 0
    assert payload["completed_trials"] == payload["max_trials"]
    assert payload["winner_matches_fault_free"]


def test_service_survives_worker_outage():
    """Acceptance: through the outage the cache answers and an uncached
    chip fails with the engine's error, and the first request after it
    is answered by the engine — all visible in the metrics snapshot."""
    payload = run_serve_scenario()
    metrics = payload["metrics"]
    assert payload["outage_failures"] == 2
    assert payload["outage_cache_hit_served"]
    assert payload["outage_miss_raises_engine_error"]
    assert payload["recovered_after_outage"]
    assert metrics["worker_failures"] == 3
    assert metrics["fallback_by_reason"] == {"engine_error": 3}
    assert metrics["cache_hits"] == 1 and metrics["completed"] == 3


def main() -> None:
    parser = bench_arg_parser(__doc__, "BENCH_resilience.json")
    parser.add_argument("--trials", type=int, default=16,
                        help="NAS trial budget per sweep")
    parser.add_argument("--rate", type=float, default=0.2,
                        help="injected per-call evaluator failure rate")
    args = parser.parse_args()

    payload = run_benchmark(max_trials=args.trials, rate=args.rate)

    nas = payload["nas"]
    serve = payload["serve"]["metrics"]
    print(f"NAS sweep : {nas['completed_trials']}/{nas['max_trials']} trials "
          f"({nas['injected_faults']} faults injected, "
          f"{nas['retried_trials']} retried, "
          f"{nas['quarantined_trials']} quarantined)")
    print(f"winner matches fault-free: {nas['winner_matches_fault_free']}")
    outage = payload["serve"]
    print(f"serving   : {serve['worker_failures']} failed batches; "
          f"cache hit served={outage['outage_cache_hit_served']} "
          f"miss raised engine error="
          f"{outage['outage_miss_raises_engine_error']} "
          f"recovered={outage['recovered_after_outage']}")
    print(f"-> {args.out}")
    finish(payload, payload_checks(payload), args.out,
           enforce=args.gate == "on")


if __name__ == "__main__":
    main()
