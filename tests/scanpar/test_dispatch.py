"""The pool's one dispatch loop, in both of its forms.

``WorkerPool.run`` is the loop at one attempt with no per-shard
deadline; ``ShardSupervisor`` is the loop under a ``SupervisionPolicy``.
These tests pin what both forms share (queueing in the parent, worker
replacement, the pool's counters) and enumerate the failure table: each
worker fault against each form.
"""

import json

import numpy as np
import pytest

from repro.arch import ConvSpec, PoolSpec, SPPNetConfig
from repro.detect import SPPNetDetector, scan_scene
from repro.detect.scan import scan_origins
from repro.faults import FaultyDetector, WorkerFaultPlan
from repro.fleet import ShardSupervisor, SupervisionPolicy
from repro.geo import WatershedConfig, build_scene
from repro.robust import ScanJournal
from repro.scanpar import SharedArray, ShardTask, WorkerError, WorkerPool
from repro.scanpar.sharding import partition_origins

WINDOW = 64
STRIDE = 32
BATCH = 8


@pytest.fixture(scope="module")
def scene():
    return build_scene(WatershedConfig(size=200, road_spacing=64,
                                       stream_threshold=600, seed=5))


@pytest.fixture(scope="module")
def model():
    arch = SPPNetConfig(
        convs=(ConvSpec(8, 3, 1),), pools=(PoolSpec(2, 2),),
        spp_levels=(2, 1), fc_sizes=(32,), name="dispatch-test",
    )
    detector = SPPNetDetector(arch, seed=0)
    detector.eval()
    return detector


def scan(model, scene, **kwargs):
    kwargs.setdefault("window", WINDOW)
    kwargs.setdefault("stride", STRIDE)
    kwargs.setdefault("confidence_threshold", 0.3)
    kwargs.setdefault("batch_size", BATCH)
    return scan_scene(model, scene, **kwargs)


def make_tasks(scene, shared, model_hash):
    origins = scan_origins(scene.size, WINDOW, STRIDE)
    return [
        ShardTask(shard_index=s.index, start=s.start, stop=s.stop,
                  shm=shared.spec(), model_hash=model_hash,
                  scene_size=scene.size, window=WINDOW, stride=STRIDE,
                  batch_size=BATCH, confidence_threshold=0.3)
        for s in partition_origins(len(origins), 2, BATCH)
    ]


def journal_records(path) -> set[str]:
    _, records = ScanJournal(path).load()
    return {json.dumps(r.to_json(), sort_keys=True) for r in records}


def assert_pool_whole(pool, n_workers=2):
    assert pool.n_workers == n_workers
    assert len(set(pool.worker_pids())) == n_workers
    assert all(w.proc.is_alive() for w in pool._workers)


class TestMoreShardsThanWorkers:
    """Four shards on two workers queue in the parent, one in flight per
    worker, and merge to the one-worker scan bit for bit."""

    @pytest.mark.parametrize("supervision", [None, True])
    @pytest.mark.parametrize("journaled", [False, True])
    @pytest.mark.parametrize("backend", ["engine"])
    def test_four_shards_on_two_workers(self, model, scene, tmp_path,
                                        backend, journaled, supervision):
        def run(n_workers, **kwargs):
            if journaled:
                kwargs["journal"] = str(tmp_path / f"w{n_workers}.jsonl")
            return scan(model, scene, backend=backend, n_workers=n_workers,
                        **kwargs)

        sequential = run(1)
        with WorkerPool(2) as pool:
            pooled = run(4, pool=pool, supervision=supervision)
            assert pool.stats["tasks"] == 4
            assert pool.stats["workers_spawned"] == 2
        assert list(pooled) == list(sequential)
        assert pooled.coverage == sequential.coverage
        if journaled:
            assert journal_records(tmp_path / "w4.jsonl") == \
                journal_records(tmp_path / "w1.jsonl")
        if supervision:
            assert pooled.supervision.clean
            assert pooled.supervision.shards_total == 4

    def test_queued_shards_fail_when_every_worker_dies(self, model, scene,
                                                       tmp_path):
        """Trusting, a dead worker's replacement has no model and sits
        out the run: once both workers die, the shards still queued are
        lost too, at once rather than at the run deadline."""
        plan = WorkerFaultPlan(faults={0: "kill", 1: "kill"},
                               fuse_dir=str(tmp_path / "fuses"))
        with WorkerPool(2) as pool:
            with pytest.raises(WorkerError, match="every worker died"):
                scan(FaultyDetector(model, plan), scene, n_workers=4,
                     pool=pool)
            assert pool.stats["workers_revived"] == 2
            assert_pool_whole(pool)


class TestPoolCounters:
    def test_a_death_counts_as_revived_not_killed(self, model, scene,
                                                  tmp_path):
        plan = WorkerFaultPlan(faults={0: "kill"},
                               fuse_dir=str(tmp_path / "fuses"))
        with WorkerPool(2) as pool:
            result = scan(FaultyDetector(model, plan), scene, n_workers=2,
                          pool=pool, supervision=True)
            report = result.supervision
            assert pool.stats["workers_killed"] == 0
            assert pool.stats["workers_revived"] == report.worker_deaths == 1

    def test_a_missed_deadline_counts_as_killed(self, model, scene,
                                                tmp_path):
        plan = WorkerFaultPlan(faults={0: "hang"},
                               fuse_dir=str(tmp_path / "fuses"))
        policy = SupervisionPolicy(shard_deadline_s=1.0,
                                   probe_interval_s=0.25)
        with WorkerPool(2) as pool:
            result = scan(FaultyDetector(model, plan), scene, n_workers=2,
                          pool=pool, supervision=policy)
            report = result.supervision
            assert pool.stats["workers_revived"] == 0
            assert pool.stats["workers_killed"] == report.deadline_kills == 1


# what the trusting form's WorkerError says for each fault
TRUSTING_MESSAGE = {
    "error": "failed in worker",
    "kill": "died",
    "hang": r"missed the 1\.0s dispatch deadline",
}

# the report counter each fault must move on the supervised form
SUPERVISED_COUNTER = {
    "error": "redispatches",
    "kill": "worker_deaths",
    "hang": "deadline_kills",
}


@pytest.mark.parametrize("form", ["trusting", "supervised"])
@pytest.mark.parametrize("fault", ["error", "kill", "hang"])
def test_failure_table(model, scene, tmp_path, fault, form):
    """One fault on the first model call, against each form: the form's
    promised outcome, then a whole pool that scans like the inline
    scan."""
    plan = WorkerFaultPlan(faults={0: fault},
                           fuse_dir=str(tmp_path / "fuses"))
    faulty = FaultyDetector(model, plan)
    with WorkerPool(2) as pool, SharedArray(scene.image) as shared:
        clean = pool.run(make_tasks(scene, shared, pool.ensure_model(model)))
        tasks = make_tasks(scene, shared, pool.ensure_model(faulty))
        assert len(tasks) == 2
        if form == "trusting":
            with pytest.raises(WorkerError, match=TRUSTING_MESSAGE[fault]) \
                    as raised:
                pool.run(tasks, timeout_s=1.0)
            assert "shard " in str(raised.value)
        else:
            policy = SupervisionPolicy(shard_deadline_s=1.0,
                                       probe_interval_s=0.25)
            payloads, report = ShardSupervisor(pool, faulty, policy).run(tasks)
            assert getattr(report, SUPERVISED_COUNTER[fault]) >= 1
            assert report.redispatches >= 1 and not report.poison_shards
            for got, want in zip(payloads, clean):
                for key in ("confidences", "boxes"):
                    assert np.asarray(got[key]).tobytes() == \
                        np.asarray(want[key]).tobytes()
        assert plan.fired() == 1
        assert_pool_whole(pool)
        again = scan(model, scene, n_workers=2, pool=pool)
    assert list(again) == list(scan(model, scene, n_workers=1))
