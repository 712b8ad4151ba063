"""The pool's one dispatch loop: ``WorkerPool.run`` under the pool's
``SupervisionPolicy``.

These tests pin queueing in the parent, worker replacement and the
pool's counters, and enumerate the failure table: each worker fault
against a pooled scan, which must finish as the inline scan does.
"""

import json
from dataclasses import asdict

import pytest

from repro.detect import ScanSpec, scan_scene
from repro.robust import ScanJournal
from repro.scanpar import SupervisionPolicy, WorkerPool
from tests.faults import FaultyEngine

SPEC = ScanSpec(window=64, stride=32, confidence_threshold=0.3, batch_size=8)


@pytest.fixture(scope="module")
def scene(watershed):
    return watershed(200)


@pytest.fixture(scope="module")
def model(small_detector):
    return small_detector


def scan(model, scene, **kwargs):
    return scan_scene(model, scene, **{**asdict(SPEC), **kwargs})


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

    # deadline: None runs under a policy without per-shard deadlines,
    # True under the default policy's deadline
    @pytest.mark.parametrize("deadline", [None, True])
    @pytest.mark.parametrize("journaled", [False, True])
    @pytest.mark.parametrize("backend", ["engine"])
    def test_four_shards_on_two_workers(self, model, scene, tmp_path,
                                        backend, journaled, deadline):
        def run(n_workers, **kwargs):
            if journaled:
                kwargs["journal"] = str(tmp_path / f"w{n_workers}.jsonl")
            return scan(model, scene, backend=backend, n_workers=n_workers,
                        **kwargs)

        sequential = run(1)
        policy = (SupervisionPolicy() if deadline
                  else SupervisionPolicy(shard_deadline_s=None))
        with WorkerPool(2, supervision=policy) as pool:
            pooled = run(4, pool=pool)
            assert pool.stats["tasks"] == 4
            assert pool.stats["workers_spawned"] == 2
        assert list(pooled) == list(sequential)
        assert pooled.coverage == sequential.coverage
        if journaled:
            assert journal_records(tmp_path / "w4.jsonl") == \
                journal_records(tmp_path / "w1.jsonl")
        assert pooled.supervision.clean
        assert pooled.supervision.shards_total == 4


class TestPoolCounters:
    def test_a_death_counts_as_revived_not_killed(self, model, scene,
                                                  tmp_path):
        faulty = FaultyEngine(model, worker_faults={0: "kill"},
                              fuse_dir=str(tmp_path / "fuses"))
        with WorkerPool(2) as pool:
            result = scan(faulty, scene, n_workers=2, pool=pool)
            report = result.supervision
            assert pool.stats["workers_killed"] == 0
            assert pool.stats["workers_revived"] == report.worker_deaths == 1

    def test_a_missed_deadline_counts_as_killed(self, model, scene,
                                                tmp_path):
        faulty = FaultyEngine(model, worker_faults={0: "hang"},
                              fuse_dir=str(tmp_path / "fuses"))
        policy = SupervisionPolicy(shard_deadline_s=1.0)
        with WorkerPool(2, supervision=policy) as pool:
            result = scan(faulty, scene, n_workers=2, pool=pool)
            report = result.supervision
            assert pool.stats["workers_revived"] == 0
            assert pool.stats["workers_killed"] == report.deadline_kills == 1


#: the report counter each fault must move
COUNTER = {
    "error": "redispatches",
    "kill": "worker_deaths",
    "hang": "deadline_kills",
}


# a robust shard absorbs an engine error itself (its micro-batch re-runs
# tile by tile on the engine, and the coverage counts the engine fault),
# so only a plain shard fails on one
@pytest.mark.parametrize("fault, stage", [
    ("error", "plain"), ("kill", "plain"), ("kill", "journaled"),
    ("hang", "plain"), ("hang", "journaled")])
def test_failure_table(model, scene, tmp_path, fault, stage):
    """One fault on the first model call of a 2-shard scan: the scan
    finishes as the inline scan does (detections, coverage and journal
    records), the fault's counter moved, and the pool is whole."""
    journaled = stage == "journaled"

    def run(model, n_workers, **kwargs):
        if journaled:
            kwargs["journal"] = str(tmp_path / f"w{n_workers}.jsonl")
        return scan(model, scene, n_workers=n_workers, **kwargs)

    faulty = FaultyEngine(model, worker_faults={0: fault},
                          fuse_dir=str(tmp_path / "fuses"))
    inline = run(model, 1)
    policy = SupervisionPolicy(shard_deadline_s=1.0)
    with WorkerPool(2, supervision=policy) as pool:
        pooled = run(faulty, 2, pool=pool)
        assert faulty.fired() == 1
        assert_pool_whole(pool)
    report = pooled.supervision
    assert report.shards_total == 2
    assert getattr(report, COUNTER[fault]) >= 1
    assert report.redispatches >= 1 and not report.poison_shards
    assert list(pooled) == list(inline)
    assert pooled.coverage == inline.coverage
    if journaled:
        assert journal_records(tmp_path / "w2.jsonl") == \
            journal_records(tmp_path / "w1.jsonl")
