"""The pool's supervision: deadlines, revival, redispatch, poison
quarantine, under the ``SupervisionPolicy`` a ``WorkerPool`` holds.

Every recovery test asserts the core contract — detections byte-identical
to the fault-free sequential scan — because recovery that changes the
merge is worse than no recovery at all.
"""

import os
import time
from dataclasses import asdict

import pytest

from repro.detect.scan import ScanDeadlineError, ScanSpec, scan_scene
from repro.fleet import SupervisionPolicy
from repro.scanpar import SharedArray, ShardTask, WorkerError, WorkerPool
from repro.scanpar.sharding import partition_origins
from tests.faults import FaultyEngine

SPEC = ScanSpec(window=64, stride=32, confidence_threshold=0.3, batch_size=8)


def scan(model, scene, **kwargs):
    return scan_scene(model, scene, **{**asdict(SPEC), **kwargs})


def make_tasks(scene, shared, model_hash):
    origins = SPEC.origins(scene.size)
    shards = partition_origins(len(origins), 2, SPEC.batch_size)
    assert len(shards) >= 2
    return [
        ShardTask(shard_index=s.index, start=s.start, stop=s.stop,
                  shm=shared.spec(), model_hash=model_hash,
                  scene_size=scene.size, window=SPEC.window,
                  stride=SPEC.stride, batch_size=SPEC.batch_size,
                  confidence_threshold=SPEC.confidence_threshold)
        for s in shards
    ]


class ExplodingModel:
    """Picklable model stand-in whose engine program raises everywhere,
    parent included: a ``RuntimeError``, so the inline run happens (an
    engine that cannot compile raises a permanent ``ValueError``, which
    never runs inline)."""

    def eval(self):
        return self

    def engine_program(self):
        raise RuntimeError("engine unavailable")


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="shard_deadline_s"):
            SupervisionPolicy(shard_deadline_s=0.0)
        with pytest.raises(ValueError, match="max_attempts"):
            SupervisionPolicy(max_attempts=0)
        assert SupervisionPolicy(shard_deadline_s=None).shard_deadline_s is None
        with pytest.raises(TypeError, match="SupervisionPolicy"):
            WorkerPool(1, supervision=True)


class TestCleanRuns:
    def test_supervised_scan_matches_sequential(self, model, scene):
        sequential = scan(model, scene, n_workers=1)
        with WorkerPool(2) as pool:
            result = scan(model, scene, n_workers=2, pool=pool)
        report = result.supervision
        assert list(result) == list(sequential)
        assert result.coverage == sequential.coverage
        assert report is not None and report.clean
        assert report.shards_total >= 2
        assert all(n == 1 for n in report.attempts.values())

    def test_report_json_roundtrip(self, model, scene):
        with WorkerPool(2) as pool:
            result = scan(model, scene, n_workers=2, pool=pool)
        snap = result.supervision.to_json()
        assert snap["shards_total"] == result.supervision.shards_total
        assert snap["deadline_kills"] == 0
        assert snap["poison_shards"] == []
        import json
        json.dumps(snap)  # must be JSON-safe for queue result summaries


class TestFaultRecovery:
    def test_hung_worker_is_killed_and_shard_redispatched(
            self, model, scene, tmp_path):
        sequential = scan(model, scene, n_workers=1)
        faulty = FaultyEngine(model, worker_faults={0: "hang"},
                              fuse_dir=str(tmp_path / "fuses"))
        policy = SupervisionPolicy(shard_deadline_s=1.5)
        t0 = time.monotonic()
        with WorkerPool(2, supervision=policy) as pool:
            result = scan(faulty, scene, n_workers=2, pool=pool)
        elapsed = time.monotonic() - t0
        report = result.supervision
        assert list(result) == list(sequential)
        assert report.deadline_kills >= 1
        assert report.redispatches >= 1
        assert report.workers_replaced >= 1
        assert not report.clean
        # the hung worker must never stall dispatch much past its
        # deadline: the dispatch wait wakes at the earliest shard deadline
        assert report.max_overshoot_s <= 1.0
        assert elapsed < 30.0
        assert faulty.fired() == 1

    def test_sigkilled_worker_is_replaced_without_leaks(
            self, model, scene, tmp_path):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm to observe")
        sequential = scan(model, scene, n_workers=1)
        before = set(os.listdir("/dev/shm"))
        faulty = FaultyEngine(model, worker_faults={0: "kill"},
                              fuse_dir=str(tmp_path / "fuses"))
        with WorkerPool(2) as pool:
            result = scan(faulty, scene, n_workers=2, pool=pool)
            report = result.supervision
            # re-warm: 2 initial model sends + 1 to the replacement
            assert pool.stats["model_sends"] == 3
            # the revived pool keeps working on a clean follow-up scan
            again = scan(faulty, scene, n_workers=2, pool=pool)
        after = set(os.listdir("/dev/shm"))
        leaked = {n for n in after - before if n.startswith("psm_")}
        assert leaked == set()
        assert list(result) == list(sequential)
        assert list(again) == list(sequential)
        assert report.worker_deaths >= 1
        assert report.workers_replaced >= 1
        assert again.supervision.clean  # the kill fuse fired exactly once

    def test_erroring_shard_redispatches_and_recovers(
            self, model, scene, tmp_path):
        sequential = scan(model, scene, n_workers=1)
        faulty = FaultyEngine(model, worker_faults={0: "error"},
                              fuse_dir=str(tmp_path / "fuses"))
        with WorkerPool(2) as pool:
            result = scan(faulty, scene, n_workers=2, pool=pool)
        report = result.supervision
        assert list(result) == list(sequential)
        assert report.redispatches >= 1
        # the worker survived its shard's exception: no kills, no deaths
        assert report.worker_deaths == 0
        assert report.deadline_kills == 0
        assert report.workers_replaced == 0

    def test_slow_worker_needs_no_recovery(self, model, scene, tmp_path):
        sequential = scan(model, scene, n_workers=1)
        faulty = FaultyEngine(model, worker_faults={0: "slow"}, slow_s=0.2,
                              fuse_dir=str(tmp_path / "fuses"))
        policy = SupervisionPolicy(shard_deadline_s=30.0)
        with WorkerPool(2, supervision=policy) as pool:
            result = scan(faulty, scene, n_workers=2, pool=pool)
        assert list(result) == list(sequential)
        assert result.supervision.clean

    def test_poison_shard_degrades_to_inline(self, model, scene, tmp_path):
        sequential = scan(model, scene, n_workers=1)
        # enough error fuses that every worker attempt fails: both
        # shards exhaust max_attempts and must run inline in the parent
        # (where a FaultyEngine's worker faults never fire)
        faulty = FaultyEngine(
            model, worker_faults={n: "error" for n in range(12)},
            fuse_dir=str(tmp_path / "fuses"))
        policy = SupervisionPolicy(max_attempts=2)
        with WorkerPool(2, supervision=policy) as pool:
            result = scan(faulty, scene, n_workers=2, pool=pool)
        report = result.supervision
        assert list(result) == list(sequential)
        assert len(report.poison_shards) >= 1
        assert all(n == 2 for n in report.attempts.values())

    def test_inline_failure_raises_worker_error(self, scene):
        policy = SupervisionPolicy(max_attempts=1)
        with WorkerPool(2, supervision=policy) as pool:
            with pytest.raises(WorkerError, match="again inline"):
                scan(ExplodingModel(), scene, n_workers=2, pool=pool)


class TestDeadlines:
    def test_expired_deadline_aborts_and_pool_survives(self, model, scene):
        policy = SupervisionPolicy(shard_deadline_s=None)
        with WorkerPool(2, supervision=policy) as pool, \
                SharedArray(scene.image) as shared:
            model_hash = pool.ensure_model(model)
            tasks = make_tasks(scene, shared, model_hash)
            with pytest.raises(ScanDeadlineError, match="shards unfinished"):
                pool.run(tasks, deadline_at=time.monotonic() - 1.0)
            # abort cleared the stragglers: the pool can scan again
            payloads = pool.run(make_tasks(scene, shared, model_hash))
            assert len(payloads) == len(tasks)
            assert payloads.supervision.clean
        sequential = scan(model, scene, n_workers=1)
        with WorkerPool(2) as pool2:
            result = scan(model, scene, n_workers=2, pool=pool2)
        assert list(result) == list(sequential)

    def test_hung_scan_hits_overall_deadline(self, model, scene, tmp_path):
        faulty = FaultyEngine(model, worker_faults={0: "hang", 1: "hang"},
                              fuse_dir=str(tmp_path / "fuses"))
        policy = SupervisionPolicy(shard_deadline_s=None)
        t0 = time.monotonic()
        with WorkerPool(2, supervision=policy) as pool:
            with pytest.raises(ScanDeadlineError):
                scan(faulty, scene, n_workers=2, pool=pool,
                     timeout_s=0.8)
        assert time.monotonic() - t0 < 15.0

    def test_deadline_abort_is_resumable(self, model, scene, tmp_path):
        """Crash-resume across a deadline abort: the journaled retry
        completes and matches a fault-free robust scan byte for byte."""
        faulty = FaultyEngine(model, worker_faults={0: "hang", 1: "hang"},
                              fuse_dir=str(tmp_path / "fuses"))
        policy = SupervisionPolicy(shard_deadline_s=None)
        journal = tmp_path / "scan.journal.jsonl"
        with WorkerPool(2, supervision=policy) as pool:
            with pytest.raises(ScanDeadlineError):
                scan(faulty, scene, n_workers=2, pool=pool,
                     journal=str(journal), resume=True,
                     timeout_s=0.8)
            # both hang fuses burned in attempt one: the resume is clean
            resumed = scan(faulty, scene, n_workers=2, pool=pool,
                           journal=str(journal), resume=True)
        reference = scan(faulty, scene, n_workers=1,
                         journal=str(tmp_path / "ref.journal.jsonl"))
        assert list(resumed) == list(reference)
        assert resumed.coverage.tiles_total == reference.coverage.tiles_total
        assert resumed.coverage.tiles_quarantined == 0
