"""One failure taxonomy: every retry loop asks ``repro.retry.retryable``
whether another attempt can help.

The table below pins, for each loop, how many times failing work runs
when its error is permanent (a ``ValueError``: one run, and no inline
shard run) and when it is transient (an ``InjectedFault``: the loop's
whole budget).  The ``guard`` row is the service over the real
``GuardedEngine``: a non-finite answer (``EngineError``) is permanent,
the compiled call's own ``RuntimeError`` transient.
"""

import os
from itertools import islice

import numpy as np
import pytest

from repro.arch import ConvSpec, PoolSpec, SPPNetConfig
from repro.blas import BlasError
from repro.detect import ScanSpec, SPPNetDetector
from repro.detect.scan import ScanDeadlineError
from repro.faults import InjectedFault
from repro.fleet import JobQueue, JobQueueError, ScanFleet, SupervisionPolicy
from repro.geo.synthesis import WatershedConfig
from repro.nas import FunctionalEvaluator, RetryPolicy, run_trial_with_retries
from repro.retry import retryable
from repro.robust import EngineError, GuardedEngine, ScanJournalError
from repro.scanpar import SharedArray, ShardTask, WorkerError, WorkerPool
from repro.scanpar.pool import ShardError
from repro.serve import InferenceService

BUDGET = 3
RETRY = RetryPolicy(max_attempts=BUDGET, backoff_s=0.0, jitter=0.0)
SPEC = ScanSpec(window=64, stride=32, batch_size=8)


def test_the_taxonomy():
    permanent = [ValueError(), TypeError(), ScanJournalError(), JobQueueError(),
                 BlasError(), ShardError(), EngineError("non_finite")]
    transient = [OSError(), TimeoutError(), ScanDeadlineError(), WorkerError(),
                 InjectedFault(), MemoryError(), RuntimeError()]
    assert not any(map(retryable, permanent))
    assert all(map(retryable, transient))
    assert not retryable(KeyboardInterrupt())


class RaisingEngine:
    """A ``GuardedEngine`` stand-in whose every batch raises ``exc``."""

    def __init__(self, exc):
        self.exc = exc
        self.calls = 0

    def warmup(self, batch_sizes, sample_shape=None):
        return 0.0

    def predict_stream(self, chips, limit):
        self.calls += 1
        raise self.exc("engine fault")


class FailingDetector:
    """Picklable model stand-in whose engine program raises ``exc`` in
    every process, appending the pid of each attempt to ``log``."""

    def __init__(self, exc, log):
        self.exc = exc
        self.log = str(log)

    def eval(self):
        return self

    def engine_program(self):
        with open(self.log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        raise self.exc("engine fault")


@pytest.fixture(scope="module")
def model():
    arch = SPPNetConfig(convs=(ConvSpec(8, 3, 1),), pools=(PoolSpec(2, 2),),
                        spp_levels=(2, 1), fc_sizes=(32,), name="retry-test")
    return SPPNetDetector(arch, seed=0).eval()


def fleet_runs(exc, tmp_path):
    calls = []

    def provider(payload):
        calls.append(1)
        raise exc("scene provider fault")

    fleet = ScanFleet(JobQueue(tmp_path / "queue.jsonl", retry=RETRY), None,
                      workdir=tmp_path, scene_provider=provider)
    fleet.submit_scene("j", WatershedConfig(size=64))
    summary = fleet.run()
    assert summary["outcomes"]["j"][-1] == "dead"
    assert len(summary["outcomes"]["j"]) == len(calls)
    return {"runs": len(calls)}


def trial_runs(exc, monkeypatch, returns=None):
    calls, sleeps = [], []

    def evaluate(sample):
        calls.append(1)
        if returns is not None:
            return returns
        raise exc("evaluator fault")

    monkeypatch.setattr("repro.nas.experiment.time.sleep", sleeps.append)
    record = run_trial_with_retries(
        FunctionalEvaluator(evaluate), {"a": 1}, 0,
        RetryPolicy(max_attempts=BUDGET, backoff_s=0.05))
    assert record.status == "failed" and record.attempts == len(calls)
    assert exc.__name__ in record.error
    return {"runs": len(calls), "sleeps": len(sleeps)}


def shard_runs(exc, tmp_path):
    log = tmp_path / "attempts.log"
    detector = FailingDetector(exc, log)
    image = np.zeros((4, 128, 128), np.float32)
    policy = SupervisionPolicy(max_attempts=BUDGET, shard_deadline_s=None)
    with WorkerPool(2, supervision=policy) as pool, \
            SharedArray(image) as shared:
        task = ShardTask(shard_index=0, start=0, stop=len(SPEC.origins(128)),
                         shm=shared.spec(), model_hash=pool.ensure_model(detector),
                         scene_size=128, window=SPEC.window, stride=SPEC.stride,
                         batch_size=SPEC.batch_size,
                         confidence_threshold=SPEC.confidence_threshold)
        with pytest.raises(WorkerError, match="shard 0") as raised:
            pool.run([task])
    assert exc.__name__ in str(raised.value)
    assert retryable(raised.value) == retryable(exc())
    pids = log.read_text().split()
    inline = pids.count(str(os.getpid()))
    return {"runs": len(pids) - inline, "inline": inline}


class FaultyCompiled:
    """A compiled-program stand-in behind the real ``GuardedEngine``:
    every open batch answers non-finite (``permanent``) or raises a
    ``RuntimeError``."""

    def __init__(self, permanent):
        self.permanent = permanent
        self.calls = 0

    def warmup(self, batch_sizes, sample_shape=None):
        return 0.0

    def predict_stream(self, chips, limit):
        self.calls += 1
        n = len(list(islice(chips, limit)))
        if self.permanent:
            return np.full(n, np.nan), np.zeros((n, 4))
        raise RuntimeError("engine fault")


def service_runs(exc, model, engine=None):
    engine = engine if engine is not None else RaisingEngine(exc)
    with InferenceService(model, engine=engine) as service:
        chip = np.random.default_rng(0).random((4, 32, 32), np.float32)
        future = service.submit(chip)
        assert isinstance(future.exception(timeout=30), exc)
        failures = service.breaker._consecutive_failures
        snap = service.metrics.snapshot()
    assert failures == 1                # one failed batch, however many runs
    assert snap["worker_retries"] == snap["worker_failures"] - 1
    return {"runs": snap["worker_failures"]}


def guard_runs(permanent, model):
    compiled = FaultyCompiled(permanent)
    guard = GuardedEngine(model, compiled=compiled)
    runs = service_runs(EngineError if permanent else RuntimeError, model,
                        engine=guard)
    reason = "non_finite" if permanent else "engine_error"
    assert guard.fallback_by_reason == {reason: compiled.calls}
    assert runs["runs"] == compiled.calls
    return runs


# loop -> (permanent counts, transient counts)
TABLE = {
    "fleet": ({"runs": 1}, {"runs": BUDGET}),
    "trial": ({"runs": 1, "sleeps": 0}, {"runs": BUDGET, "sleeps": BUDGET - 1}),
    "shard": ({"runs": 1, "inline": 0}, {"runs": BUDGET, "inline": 1}),
    # InferenceService's default max_batch_retries is 1
    "service": ({"runs": 1}, {"runs": 2}),
    "guard": ({"runs": 1}, {"runs": 2}),
}


def test_a_trial_result_without_a_value_is_permanent(monkeypatch):
    """The evaluator's own bug: every attempt returns the same mapping."""
    runs = trial_runs(ValueError, monkeypatch, returns={"accuracy": 0.9})
    assert runs == TABLE["trial"][0]


@pytest.mark.parametrize("kind", ["permanent", "transient"])
@pytest.mark.parametrize("loop", sorted(TABLE))
def test_runs_per_loop(loop, kind, model, tmp_path, monkeypatch):
    exc = ValueError if kind == "permanent" else InjectedFault
    runs = {
        "fleet": lambda: fleet_runs(exc, tmp_path),
        "trial": lambda: trial_runs(exc, monkeypatch),
        "shard": lambda: shard_runs(exc, tmp_path),
        "service": lambda: service_runs(exc, model),
        "guard": lambda: guard_runs(kind == "permanent", model),
    }[loop]()
    assert runs == TABLE[loop][kind == "transient"]
