"""One failure taxonomy: every retry loop asks ``repro.retry.retryable``
whether another attempt can help.

The table below pins, for each loop, how many times failing work runs
when its error is permanent (a ``ValueError``: one run, and no inline
shard run) and when it is transient (an ``InjectedFault``: the loop's
whole budget).  The ``service`` row's engine raises that error; in the
``guard`` row a non-finite answer (``EngineError``, from the guard's
check) is permanent and the compiled call's own ``RuntimeError``
transient.  Both serve a ``tests.faults.FaultyEngine``.
"""

import os

import numpy as np
import pytest

from repro.blas import BlasError
from repro.detect import ScanSpec
from repro.detect.scan import ScanDeadlineError
from repro.fleet import JobQueue, JobQueueError, ScanFleet, SupervisionPolicy
from repro.geo.synthesis import WatershedConfig
from repro.nas import FunctionalEvaluator, RetryPolicy, run_trial_with_retries
from repro.retry import retryable
from repro.robust import EngineError, ScanJournalError
from repro.scanpar import SharedArray, ShardTask, WorkerError, WorkerPool
from repro.scanpar.pool import ShardError
from repro.serve import InferenceService
from tests.faults import FaultyEngine, InjectedFault

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
def model(small_detector):
    return small_detector


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


def service_runs(exc, faulty, reason="engine_error"):
    """Serve one chip through ``faulty``, whose every batch fails with
    ``exc``: the runs its batch took, each an engine call the guard
    tallied under ``reason``."""
    with InferenceService(faulty) as service:
        chip = np.random.default_rng(0).random((4, 32, 32), np.float32)
        future = service.submit(chip)
        assert isinstance(future.exception(timeout=30), exc)
        snap = service.metrics.snapshot()
    assert snap["worker_retries"] == snap["worker_failures"] - 1
    assert service.engine.fallback_by_reason == {reason: faulty.calls}
    assert snap["worker_failures"] == faulty.calls
    return {"runs": faulty.calls}


def guard_runs(permanent, model):
    faulty = FaultyEngine(model, failures=10**6,
                          kind="nan" if permanent else "raise",
                          exc=RuntimeError)
    return service_runs(EngineError if permanent else RuntimeError, faulty,
                        "non_finite" if permanent else "engine_error")


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
        "service": lambda: service_runs(
            exc, FaultyEngine(model, failures=10**6, exc=exc)),
        "guard": lambda: guard_runs(kind == "permanent", model),
    }[loop]()
    assert runs == TABLE[loop][kind == "transient"]
