"""Open micro-batches and the late-bound cut: who cuts a batch, when it
closes, and that the guard's, the deadline's and shutdown's contracts
hold over a batch that is still admitting requests while it runs.

The tests drive the service through a gated model whose compiled
program's open form pulls one chip, parks on an ``Event`` and only then
keeps pulling, so what is queued at every pull is decided by the test,
not by timing.
"""

import json
import sys
import threading
import time
from itertools import islice

import numpy as np
import pytest

from repro.detect import scan_scene
from repro.engine import CompiledModel, compiled_for
from repro.robust import EngineError, GuardedEngine
from repro.serve import (
    BatchPolicy,
    InferenceService,
    QueueFullError,
    RequestTimeoutError,
    ServiceStoppedError,
    format_service_report,
)
from tests.faults import FaultyEngine

WAIT = 10.0     # every wait in this file is bounded by it


@pytest.fixture(scope="module")
def model(small_detector):
    return small_detector


def chips(n, seed=0, size=24):
    rng = np.random.default_rng(seed)
    return rng.random((n, 4, size, size)).astype(np.float32)


class GatedCompiled:
    """A model whose engine program (``compiled_for``'s
    ``engine_program()`` hook) is the real compiled model behind an open
    form that pulls one chip, signals ``first_pulled``, waits for
    ``gate`` and then keeps pulling.  ``raise_after`` makes the first
    open call raise once that many chips are pulled."""

    def __init__(self, model, raise_after=None):
        self.compiled = compiled_for(model)
        self.first_pulled = threading.Event()
        self.gate = threading.Event()
        self.raise_after = raise_after
        self.calls = 0

    def eval(self):
        return self

    def engine_program(self):
        return self

    def __getattr__(self, name):
        return getattr(self.compiled, name)

    def predict_stream(self, chips, limit):
        self.calls += 1
        call = self.calls

        def gated():
            yield next(chips)       # the opening request; its trunk runs
            if call == 1:           # the engine now asks for a second chip
                self.first_pulled.set()
                assert self.gate.wait(WAIT)
            pulled = 1
            while not (call == 1 and pulled == self.raise_after):
                chip = next(chips, None)
                if chip is None:
                    return
                pulled += 1
                yield chip
            raise RuntimeError("injected engine crash")

        return self.compiled.predict_stream(gated(), limit)


def gated_service(model, policy, raise_after=None, **kwargs):
    """A cache-less service over a gated engine, and the double."""
    double = GatedCompiled(model, raise_after)
    service = InferenceService(double, policy, cache_size=0, **kwargs)
    return service, double


def open_first_batch(service, double, chip):
    """Submit ``chip`` and return once its trunk is done and the engine
    is parked asking for a second chip."""
    first = service.submit(chip)
    assert double.first_pulled.wait(WAIT)
    return first


class TestOpenBatch:
    def test_requests_arriving_during_a_trunk_join_the_batch(self, model):
        batch = chips(6)
        service, double = gated_service(model, BatchPolicy(max_batch=8))
        with service:
            futures = [open_first_batch(service, double, batch[0])]
            futures += service.submit_many(batch[1:])
            double.gate.set()
            results = [f.result(timeout=WAIT) for f in futures]
            snap = service.metrics.snapshot()
        assert snap["batch_size_histogram"] == {"6": 1}
        assert snap["batch_close_reasons"] == {"queue_empty": 1}
        assert [r.batch_size for r in results] == [6] * 6
        # bit for bit: a row does not depend on the batch it ran in
        conf, boxes, _ = GuardedEngine(model).predict_batch(batch)
        np.testing.assert_array_equal([r.confidence for r in results], conf)
        np.testing.assert_array_equal(np.stack([r.box for r in results]),
                                      boxes)
        assert snap["queue_depth"] == 0 and snap["queue_depth_peak"] == 5

    def test_batch_closes_at_max_batch_and_the_rest_ride_the_next(self, model):
        batch = chips(5)
        service, double = gated_service(model, BatchPolicy(max_batch=3))
        with service:
            futures = [open_first_batch(service, double, batch[0])]
            futures += service.submit_many(batch[1:])
            double.gate.set()
            sizes = [f.result(timeout=WAIT).batch_size for f in futures]
            snap = service.metrics.snapshot()
        assert sizes == [3, 3, 3, 2, 2]
        assert snap["batch_close_reasons"] == {"max_batch": 1,
                                               "queue_empty": 1}
        json.dumps(snap, allow_nan=False)       # strict-JSON-safe
        report = format_service_report(service.metrics)
        assert "closed by [max_batch]: 1" in report
        assert "closed by [queue_empty]: 1" in report

    def test_lone_request_does_not_wait_for_company(self, model):
        with InferenceService(model, BatchPolicy(max_batch=8)) as service:
            start = time.monotonic()
            result = service.submit(chips(1)[0]).result(timeout=WAIT)
            elapsed = time.monotonic() - start
        assert result.batch_size == 1
        assert elapsed < 0.25

    def test_only_same_shaped_requests_are_admitted(self, model):
        small, large = chips(3, size=24), chips(2, seed=1, size=32)
        service, double = gated_service(model, BatchPolicy(max_batch=8))
        with service:
            futures = [open_first_batch(service, double, small[0])]
            futures += service.submit_many(
                [large[0], small[1], large[1], small[2]])
            double.gate.set()
            sizes = [f.result(timeout=WAIT).batch_size for f in futures]
            hist = service.metrics.batch_size_histogram
        assert sizes == [3, 2, 3, 2, 3] and hist == {2: 1, 3: 1}

    def test_expired_joiner_times_out_and_the_batch_goes_on(self, model):
        batch = chips(4)
        service, double = gated_service(model, BatchPolicy(max_batch=8))
        with service:
            first = open_first_batch(service, double, batch[0])
            live = service.submit(batch[1])
            doomed = service.submit(batch[2], timeout_s=0.01)
            last = service.submit(batch[3], timeout_s=WAIT)
            time.sleep(0.05)
            double.gate.set()
            with pytest.raises(RequestTimeoutError):
                doomed.result(timeout=WAIT)
            sizes = [f.result(timeout=WAIT).batch_size
                     for f in (first, live, last)]
            snap = service.metrics.snapshot()
            assert service._deadline_count == 0
            assert not service._shape_counts
        assert sizes == [3, 3, 3]
        assert snap["timeouts"] == 1 and snap["completed"] == 3
        assert snap["batch_size_histogram"] == {"3": 1}

    def test_engine_failure_mid_batch_fails_the_pulled_chips(self, model):
        """An engine error after three pulls fails those three with the
        engine's own exception (no retry here); the two never pulled
        ride the next batch, answered by the engine."""
        batch = chips(5)
        service, double = gated_service(model, BatchPolicy(max_batch=8),
                                        raise_after=3, max_batch_retries=0)
        with service:
            futures = [open_first_batch(service, double, batch[0])]
            futures += service.submit_many(batch[1:])
            double.gate.set()
            for future in futures[:3]:
                with pytest.raises(RuntimeError, match="injected engine"):
                    future.result(timeout=WAIT)
            results = [f.result(timeout=WAIT) for f in futures[3:]]
            snap = service.metrics.snapshot()
        assert [r.batch_size for r in results] == [2, 2]
        assert snap["fallback_by_reason"] == {"engine_error": 1}
        assert snap["worker_failures"] == 1
        conf, _, _ = GuardedEngine(model).predict_batch(batch)
        np.testing.assert_array_equal([r.confidence for r in results],
                                      conf[3:])

    def test_a_chip_that_overflows_the_network_fails_alone(self, model):
        """Admission passes a chip of finite pixels, but pixels near
        1e38 overflow float32 into a non-finite row.  Only that request
        fails, with the guard's ``EngineError`` and no retry, and its
        batch-mates get the engine's bytes from the same run."""
        batch = chips(4)
        batch[1] *= 1e38
        with InferenceService(model, BatchPolicy(max_batch=8), cache_size=0,
                              max_queue=8) as service:
            with service._cond:     # all four queued before the cut
                futures = service.submit_many(batch)
            with pytest.raises(EngineError, match="non_finite"):
                futures[1].result(timeout=WAIT)
            results = [futures[i].result(timeout=WAIT) for i in (0, 2, 3)]
            snap = service.metrics.snapshot()
        assert [r.batch_size for r in results] == [4, 4, 4]
        clean = batch[[0, 2, 3]]
        conf, boxes = compiled_for(model).predict(clean,
                                                  batch_size=len(clean))
        assert np.array([r.confidence for r in results],
                        np.float32).tobytes() == conf.tobytes()
        assert np.stack([r.box for r in results]).tobytes() == boxes.tobytes()
        assert snap["worker_failures"] == 1 and snap["worker_retries"] == 0
        assert snap["completed"] == 3
        assert snap["fallback_by_reason"] == {"non_finite": 1}

    def test_overflowing_chips_alone_never_refuse_a_clean_one(self, model):
        """A client's chips cannot shut the service: six overflowing
        chips, each alone in its batch, fail one by one with the guard's
        ``EngineError``, and the clean chip after them runs on the
        engine at once and gets its bytes."""
        poisoned = chips(6, seed=1) * np.float32(1e38)
        clean = chips(1, seed=2)
        with InferenceService(model, cache_size=0) as service:
            for chip in poisoned:
                with pytest.raises(EngineError, match="non_finite"):
                    service.submit(chip).result(timeout=WAIT)
            result = service.submit(clean[0]).result(timeout=WAIT)
            snap = service.metrics.snapshot()
        conf, boxes = compiled_for(model).predict(clean, batch_size=1)
        assert np.float32(result.confidence).tobytes() == conf.tobytes()
        assert result.box.tobytes() == boxes.tobytes()
        assert snap["fallback_by_reason"] == {"non_finite": 6}
        assert snap["worker_failures"] == 6 and snap["worker_retries"] == 0
        assert snap["completed"] == 1

    def test_retry_reruns_the_admitted_members(self, model):
        """An engine error is the service's retry: it re-opens the same
        batch, and every admitted member is in the re-run."""
        batch = chips(3)
        pulled = []

        def fails_once(source, limit):
            chips_in = list(islice(source, limit))
            pulled.append(len(chips_in))
            if len(pulled) == 1:
                raise RuntimeError("injected guard failure")
            return stream(iter(chips_in), limit)

        with InferenceService(model, BatchPolicy(max_batch=8), cache_size=0,
                              max_queue=8) as service:
            stream = service.engine.predict_stream
            service.engine.predict_stream = fails_once
            with service._cond:     # all three queued before the cut
                futures = service.submit_many(batch)
            sizes = [f.result(timeout=WAIT).batch_size for f in futures]
            snap = service.metrics.snapshot()
        assert sizes == [3, 3, 3] and pulled == [3, 3]
        assert snap["worker_retries"] == 1 and snap["completed"] == 3
        assert snap["batch_close_reasons"] == {"queue_empty": 1}


class TestLateBoundCut:
    def test_busy_worker_cuts_nothing_until_it_is_free(self, model):
        """Five requests arrive while the only worker is still busy with
        a batch that already closed: they wait in the queue and become
        one batch when the worker is free, not a trail of them."""
        entered, release = threading.Event(), threading.Event()

        def held(source, limit):
            out = stream(source, limit)
            if not entered.is_set():    # the first batch, closed and run
                entered.set()
                assert release.wait(WAIT)
            return out

        with InferenceService(model, BatchPolicy(max_batch=8),
                              cache_size=0) as service:
            stream = service.engine.predict_stream
            service.engine.predict_stream = held
            futures = [service.submit(chips(1)[0])]
            assert entered.wait(WAIT)
            futures += service.submit_many(chips(5, seed=1))
            release.set()
            sizes = [f.result(timeout=WAIT).batch_size for f in futures]
            snap = service.metrics.snapshot()
        assert sizes == [1] + [5] * 5
        assert snap["batch_close_reasons"] == {"queue_empty": 2}

    def test_a_service_runs_one_model_thread(self, model):
        def model_threads():
            return [t for t in threading.enumerate()
                    if t.name.startswith("serve-worker")]

        before = model_threads()
        with InferenceService(model) as service:
            service.submit(chips(1)[0]).result(timeout=WAIT)
            running = model_threads()
        assert [t.name for t in running if t not in before] == [
            "serve-worker"]
        assert model_threads() == before
        with pytest.raises(TypeError, match="num_workers"):
            InferenceService(model, num_workers=2).shutdown()


class TestShutdownAndBackpressure:
    def test_drain_during_an_open_batch_completes_everything(self, model):
        batch = chips(5)
        service, double = gated_service(model, BatchPolicy(max_batch=8))
        futures = [open_first_batch(service, double, batch[0])]
        futures += service.submit_many(batch[1:])
        stopper = threading.Thread(target=service.shutdown)
        stopper.start()
        while not service._stopping:
            time.sleep(0.001)
        with pytest.raises(ServiceStoppedError):
            service.submit(batch[0])
        double.gate.set()
        stopper.join(WAIT)
        assert not stopper.is_alive()
        assert not any(f.result(timeout=0).cached for f in futures)
        assert service.metrics.completed.value == 5

    def test_abort_fails_only_requests_never_admitted(self, model):
        batch = chips(5)
        service, double = gated_service(model, BatchPolicy(max_batch=8))
        first = open_first_batch(service, double, batch[0])
        queued = service.submit_many(batch[1:])
        stopper = threading.Thread(target=service.shutdown,
                                   kwargs={"drain": False})
        stopper.start()
        while not service._stopping:
            time.sleep(0.001)
        double.gate.set()
        stopper.join(WAIT)
        assert not stopper.is_alive()
        assert first.result(timeout=0).batch_size == 1
        for future in queued:
            with pytest.raises(ServiceStoppedError):
                future.result(timeout=0)
        assert service.metrics.batch_close_reasons == {"draining": 1}
        assert service.queue_depth == 0

    def test_full_queue_rejects_while_a_batch_is_open(self, model):
        batch = chips(4)
        service, double = gated_service(model, BatchPolicy(max_batch=8),
                                        max_queue=2)
        with service:
            accepted = [open_first_batch(service, double, batch[0])]
            accepted += service.submit_many(batch[1:3])
            with pytest.raises(QueueFullError):
                service.submit(batch[3])
            assert service.metrics.rejected.value == 1
            double.gate.set()
            assert [f.result(timeout=WAIT).batch_size
                    for f in accepted] == [3, 3, 3]


class TestStress:
    @pytest.mark.parametrize("engine", ["engine", "custom"])
    def test_every_request_is_answered_exactly_once(self, model, engine):
        """More submitters than cores, a short switch interval: each
        request gets its own chip's answer, the batch histogram accounts
        for every request, and the queue's O(1) bookkeeping ends at
        zero.  ``engine`` serves the model; ``custom`` the model behind
        a fault double with nothing scripted, whose program the service
        reaches through ``compiled_for``'s hook, on the same one model
        thread."""
        served = model if engine == "engine" else FaultyEngine(model)
        per_client, clients = 40, 6
        total = per_client * clients
        stack = chips(total, seed=7)
        guard = GuardedEngine(model)
        want = np.concatenate([guard.predict_batch(stack[s:s + 20],
                                                   batch_size=20)[0]
                               for s in range(0, total, 20)])
        got = np.full(total, np.nan)
        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with InferenceService(served, BatchPolicy(max_batch=5),
                                  cache_size=0) as service:
                def client(k):
                    try:
                        rows = range(k * per_client, (k + 1) * per_client)
                        futures = [service.submit(stack[i], timeout_s=WAIT)
                                   for i in rows]
                        for i, future in zip(rows, futures):
                            got[i] = future.result(timeout=WAIT).confidence
                    except Exception as exc:  # pragma: no cover - diagnostic
                        errors.append(exc)

                threads = [threading.Thread(target=client, args=(k,))
                           for k in range(clients)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(4 * WAIT)
                assert not any(thread.is_alive() for thread in threads)
                hist = service.metrics.batch_size_histogram
                assert service._deadline_count == 0
                assert not service._shape_counts and not service._queue
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        np.testing.assert_array_equal(got, want)
        assert sum(size * n for size, n in hist.items()) == total
        assert max(hist) <= 5


class TestConcurrentScan:
    def test_a_request_is_not_starved_by_a_running_scan(self, model,
                                                        watershed,
                                                        monkeypatch):
        """A chip submitted while a plain ``scan_scene(model, ...)`` runs
        on another thread is answered before the scan returns.  The scan
        runs on the service's compiled program and takes its lock per
        micro-batch (7 of them here), so the chip's batch runs between
        two of them instead of queueing behind the whole scan.  The scan
        pauses after its first micro-batch until the chip is answered (at
        most ``WAIT``), so the order is the test's, not the scheduler's."""
        scene = watershed(192)
        kwargs = dict(window=64, stride=32, batch_size=4)
        reference = scan_scene(model, scene, **kwargs)
        real, under_way, answered = (CompiledModel.predict_windows,
                                     threading.Event(), threading.Event())

        def paused(*args, **kw):
            for batch in real(*args, **kw):
                yield batch
                if not under_way.is_set():
                    under_way.set()
                    answered.wait(WAIT)

        monkeypatch.setattr(CompiledModel, "predict_windows", paused)
        order, scans = [], []
        chip = scene.image[:, :64, 64:128].copy()
        with InferenceService(model, BatchPolicy(max_batch=8),
                              cache_size=0) as service:
            def scan():
                scans.append(scan_scene(model, scene, **kwargs))
                order.append("scan")

            scanner = threading.Thread(target=scan)
            scanner.start()
            under_way.wait(WAIT)
            future = service.submit(chip)
            future.add_done_callback(
                lambda _: (order.append("chip"), answered.set()))
            future.result(timeout=2 * WAIT)
            scanner.join(2 * WAIT)
            assert not scanner.is_alive()
        assert order == ["chip", "scan"]
        assert list(scans[0]) == list(reference)
