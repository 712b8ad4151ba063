"""Resilience gate: faulty sweeps finish, degraded serving stays up.

Two scenarios, both with deterministic injected faults (``tests.faults``):

1. **NAS sweep under 20% trial failures** — an ``Experiment(workers=4)``
   whose evaluator fails 20% of calls must still complete every trial
   (retry + quarantine) and pick the same winner as the fault-free sweep
   with the same seed.  This is the CI gate.
2. **Serving through a worker outage** — an ``InferenceService`` whose
   compiled engine fails hard (``tests.faults.FaultyEngine``) must trip
   the circuit breaker, keep answering cached chips in degraded mode,
   and recover via the half-open probe.

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
from repro.serve import BatchPolicy, BreakerPolicy, InferenceService

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
    breaker = BreakerPolicy(failure_threshold=2, reset_timeout_s=0.05)
    outage_failures = 0
    degraded_hit = degraded_miss = False

    with InferenceService(faulty, BatchPolicy(max_batch=4),
                          max_batch_retries=0, breaker=breaker) as service:
        service.submit(chips[0]).result(timeout=10)  # healthy + cached

        faulty.failures = 2  # outage: the next two batches fail
        for chip in chips[1:3]:
            try:
                service.submit(chip).result(timeout=10)
            except InjectedFault:
                outage_failures += 1

        try:  # degraded mode: cached chip answered, uncached fails fast
            degraded_hit = service.submit(chips[0]).result(timeout=10).cached
        except Exception:
            pass
        try:
            service.submit(chips[3]).result(timeout=10)
        except Exception:
            degraded_miss = True

        time.sleep(0.08)  # past reset timeout -> half-open probe succeeds
        recovered = service.submit(chips[4]).result(timeout=10)
        snapshot = service.metrics.snapshot()

    return {
        "outage_failures": outage_failures,
        "degraded_cache_hit_served": bool(degraded_hit),
        "degraded_miss_failed_fast": degraded_miss,
        "recovered_confidence": float(recovered.confidence),
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
        check("serve_degraded_cache_hit_served",
              serve["degraded_cache_hit_served"], "bool"),
        check("serve_degraded_miss_failed_fast",
              serve["degraded_miss_failed_fast"], "bool"),
        check("serve_breaker_recovered",
              metrics["breaker_state"] == "closed", "bool"),
    ]


def test_faulty_sweep_completes_and_matches_fault_free_winner():
    """Acceptance: 20% injected trial failures — every trial completes
    (retried or quarantined) and best() matches the fault-free winner."""
    payload = run_nas_scenario(max_trials=16, rate=0.2)
    assert payload["injected_faults"] > 0
    assert payload["completed_trials"] == payload["max_trials"]
    assert payload["winner_matches_fault_free"]


def test_service_survives_worker_outage():
    """Acceptance: breaker trips, degraded mode serves the cache, and the
    half-open probe recovers — all visible in the metrics snapshot."""
    payload = run_serve_scenario()
    metrics = payload["metrics"]
    assert payload["degraded_cache_hit_served"]
    assert payload["degraded_miss_failed_fast"]
    assert metrics["breaker_state"] == "closed"
    assert metrics["breaker_transitions"].get("closed->open") == 1
    assert metrics["breaker_transitions"].get("half_open->closed") == 1
    assert metrics["degraded_served"] >= 1
    assert metrics["degraded_rejected"] >= 1


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
    print(f"serving   : breaker {serve['breaker_state']} after "
          f"{serve['worker_failures']} worker failures; "
          f"degraded served={serve['degraded_served']} "
          f"rejected={serve['degraded_rejected']}")
    print(f"-> {args.out}")
    finish(payload, payload_checks(payload), args.out,
           enforce=args.gate == "on")


if __name__ == "__main__":
    main()
