"""WorkerPool lifecycle, the adaptive worker policy, and failure paths."""

import multiprocessing as mp
import os
import signal
import threading
import time
from dataclasses import asdict
from multiprocessing import connection as mp_connection

import pytest

from repro.blas import BlasError, blas_info, set_blas_threads
from repro.detect import ScanSpec, scan_scene
from repro.scanpar import (
    SharedArray,
    ShardTask,
    SupervisionPolicy,
    WorkerError,
    WorkerPool,
    default_start_method,
    resolve_n_workers,
    serialized_model,
)
from repro.scanpar.sharding import partition_origins
from tests.faults import FaultyEngine

SPEC = ScanSpec(window=64, stride=32, confidence_threshold=0.3, batch_size=8)
SCENE_SIZE = 200


@pytest.fixture(scope="module")
def scene(watershed):
    return watershed(SCENE_SIZE)


@pytest.fixture(scope="module")
def model(small_detector):
    return small_detector


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
    """Picklable model stand-in the engine cannot compile."""

    def eval(self):
        return self


def faulty(model, tmp_path, kind):
    """``model`` whose first two engine calls fleet-wide do ``kind``:
    "hang" wedges the calling worker, "kill" SIGKILLs it, so each of
    two workers takes one."""
    return FaultyEngine(model, worker_faults={0: kind, 1: kind},
                        fuse_dir=str(tmp_path / "fuses"))


class TestPoolReuse:
    def test_consecutive_scans_reuse_workers(self, model, scene):
        sequential = scan(model, scene, n_workers=1)
        with WorkerPool(2) as pool:
            first = scan(model, scene, n_workers=2, pool=pool)
            pids = pool.worker_pids()
            sends = pool.stats["model_sends"]
            second = scan(model, scene, n_workers=2, pool=pool)
            # no respawn, no model re-send, same processes
            assert pool.worker_pids() == pids
            assert pool.stats["workers_spawned"] == 2
            assert pool.stats["model_sends"] == sends == 2
            assert pool.stats["runs"] == 2
        assert list(first) == list(second) == list(sequential)

    def test_second_run_hits_worker_model_cache(self, model, scene):
        with WorkerPool(2) as pool:
            model_hash = pool.ensure_model(model)
            with SharedArray(scene.image) as shared:
                first = pool.run(make_tasks(scene, shared, model_hash))
                second = pool.run(make_tasks(scene, shared, model_hash))
        # ensure_model pre-populated the cache: neither run re-unpickles
        assert all(p["model_cached"] for p in first + second)
        # the warmed engine survives between runs: re-warming a cached
        # program must not cost more than the original compile
        assert all(p["warmup_ms"] >= 0 for p in first)
        assert sum(p["warmup_ms"] for p in second) <= \
            sum(p["warmup_ms"] for p in first)

    def test_ensure_model_sends_bytes_once_per_worker(self, model):
        with WorkerPool(2) as pool:
            h1 = pool.ensure_model(model)
            assert pool.stats["model_sends"] == 2
            h2 = pool.ensure_model(model)
            assert h2 == h1
            assert pool.stats["model_sends"] == 2

    def test_serialized_model_caches_per_instance(self, model):
        data1, hash1 = serialized_model(model)
        data2, hash2 = serialized_model(model)
        assert data1 is data2 and hash1 == hash2

    def test_dead_worker_is_revived(self, model, scene):
        sequential = scan(model, scene, n_workers=1)
        with WorkerPool(2) as pool:
            victim = pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 10
            while victim in pool.worker_pids() \
                    and pool._workers[0].proc.is_alive():
                if time.monotonic() > deadline:  # pragma: no cover
                    pytest.fail("killed worker never died")
                time.sleep(0.05)
            result = scan(model, scene, n_workers=2, pool=pool)
            assert pool.stats["workers_revived"] == 1
            assert victim not in pool.worker_pids()
        assert list(result) == list(sequential)


class TestPipeProtocol:
    """Conv kernels are a pure function of layer geometry, so nothing
    about them travels to workers: the pool pipe carries only the
    documented messages and the merge is still byte-identical."""

    def test_engine_scan_sends_no_kernel_choice_message(self, model, scene,
                                                        monkeypatch):
        sent = []
        real_send = mp_connection.Connection.send

        def recording_send(conn, obj):
            sent.append(obj[0])
            return real_send(conn, obj)

        monkeypatch.setattr(mp_connection.Connection, "send",
                            recording_send)
        sequential = scan(model, scene, n_workers=1)
        with WorkerPool(2) as pool:
            pooled = scan(model, scene, n_workers=2, pool=pool)
            # a replacement worker compiles from scratch, with no
            # parent decisions to adopt
            victim = pool._workers[0].proc
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            revived = scan(model, scene, n_workers=2, pool=pool)
            assert pool.stats["workers_revived"] == 1
        assert {"model", "shard"} <= set(sent)
        assert set(sent) <= {"model", "shard", "ping", "stop"}
        assert list(pooled) == list(sequential)
        assert list(revived) == list(sequential)


class TestScheduleSync:
    """Nothing about a compile is shipped to workers: they compute the
    parent's window plan from the scan geometry themselves."""

    def test_workers_run_the_sequential_scans_window_plan(self, model,
                                                          scene):
        """Pool workers take the shared path on the *scan's* chunk grid:
        every shard reports the plan (and so the prefix shapes) the
        sequential scan binds."""
        from repro.engine import compiled_for

        origins = SPEC.origins(scene.size)
        with WorkerPool(2) as pool, SharedArray(scene.image) as shared:
            tasks = make_tasks(scene, shared, pool.ensure_model(model))
            sequential = compiled_for(model).window_plan(
                scene.image.shape, SPEC.window, origins)
            assert sequential.reason is None and sequential.chunk_heights
            for payload in pool.run(tasks):
                assert payload["window_plan"] == sequential.to_json()


class TestAdaptivePolicy:
    @pytest.fixture(autouse=True)
    def one_blas_thread(self):
        """The verdicts below are per visible CPU: a worker's one BLAS
        thread takes one of them."""
        before = blas_info()["threads"]
        try:
            set_blas_threads(1)
        except BlasError as exc:
            pytest.skip(str(exc))
        yield
        set_blas_threads(before)

    def resolve(self, **kwargs):
        kwargs.setdefault("n_origins", 500)
        kwargs.setdefault("batch_size", 20)
        kwargs.setdefault("pool_warm", True)
        return resolve_n_workers("auto", **kwargs)

    def test_single_core_inlines(self):
        assert self.resolve(cpus=1) == 1

    def test_two_cores_parallelize(self):
        assert self.resolve(cpus=2) == 2

    #: (cpus, BLAS threads) -> workers, on a scene with batches to spare
    BUDGET = {(1, 1): 1, (1, 2): 1, (2, 1): 2, (2, 2): 1, (8, 1): 8,
              (8, 2): 4}

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_budget_is_cpus_over_blas_threads(self, blas_threads, cpus):
        """Every worker runs at the parent's BLAS thread count, so the
        budget is the CPUs those threads leave room for: 2 cores at 2
        threads scan inline."""
        assert self.resolve(cpus=cpus, n_origins=5000) == \
            self.BUDGET[cpus, blas_threads]

    def test_budget_capped_by_batches(self):
        # 120 origins / batch 20 = 6 micro-batches -> at most 3 workers
        assert self.resolve(cpus=8, n_origins=120) == 3

    def test_tiny_scene_inlines_even_on_many_cores(self):
        # 30 origins / batch 20 = 2 batches -> budget 1 -> sequential
        assert self.resolve(cpus=8, n_origins=30) == 1

    def test_cold_pool_needs_breakeven_scene(self):
        kwargs = dict(cpus=2, start_method="spawn", pool_warm=False)
        # break-even = 800 ms * 2 workers * 0.5 tiles/ms = 800 tiles
        assert self.resolve(n_origins=500, **kwargs) == 1
        assert self.resolve(n_origins=5000, **kwargs) == 2
        # a warm pool has already sunk the spawn cost
        assert self.resolve(n_origins=500, cpus=2, pool_warm=True) == 2

    def test_spawning_a_pool_leaves_the_verdict_unchanged(self):
        """The cold-pool break-even reads a static prior, not a stopwatch:
        a pool spawning (and timing itself) moves no "auto" verdict."""
        def verdicts(method):
            # batch 1 on two cores: the budget is 2 and the break-even is
            # the spawn cost in tiles, so any change to it flips a verdict
            return [self.resolve(n_origins=n, batch_size=1, cpus=2,
                                 start_method=method, pool_warm=False)
                    for n in range(4, 4000)]

        method = default_start_method()
        before = verdicts(method)
        with WorkerPool(1, start_method=method) as pool:
            assert pool.spawn_ms > 0
        assert verdicts(method) == before

    def test_auto_spawns_nothing_when_it_inlines(self, model, scene):
        kwargs = dict(batch_size=20)
        n_origins = len(SPEC.origins(scene.size))
        assert resolve_n_workers("auto", n_origins=n_origins,
                                 batch_size=20) == 1
        inline = scan(model, scene, **kwargs)
        before = {p.pid for p in mp.active_children()}
        auto = scan(model, scene, n_workers="auto", **kwargs)
        assert {p.pid for p in mp.active_children()} == before
        assert list(auto) == list(inline)

    def test_int_passthrough_and_validation(self):
        assert resolve_n_workers(3, n_origins=10, batch_size=20) == 3
        with pytest.raises(ValueError, match="n_workers"):
            resolve_n_workers(0, n_origins=10, batch_size=20)


class TestStartMethod:
    def test_threaded_process_prefers_spawn(self):
        seen = {}
        thread = threading.Thread(
            target=lambda: seen.setdefault("method", default_start_method())
        )
        thread.start()
        thread.join()
        assert seen["method"] == "spawn"

    def test_single_threaded_prefers_fork_when_available(self):
        if "fork" not in mp.get_all_start_methods() \
                or threading.active_count() > 1:
            pytest.skip("no fork / runner already threaded")
        assert default_start_method() == "fork"


class TestFailurePaths:
    def test_uncached_model_error_names_shard(self, scene):
        with WorkerPool(1) as pool, SharedArray(scene.image) as shared:
            tasks = make_tasks(scene, shared, "0" * 40)
            with pytest.raises(WorkerError, match=r"shard 0 \(origins"):
                pool.run(tasks[:1])
            # the failure must not poison the pool
            assert pool.worker_pids() and not pool.closed

    def test_worker_failure_cleans_result_slabs(self, scene):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm to observe")
        before = set(os.listdir("/dev/shm"))
        with WorkerPool(2) as pool:
            with pytest.raises(WorkerError, match="input_shape is required"):
                scan(ExplodingModel(), scene, n_workers=2, pool=pool)
        after = set(os.listdir("/dev/shm"))
        leaked = {name for name in after - before if name.startswith("psm_")}
        assert leaked == set()

    def test_pool_survives_failed_scan(self, model, scene):
        sequential = scan(model, scene, n_workers=1)
        with WorkerPool(2) as pool:
            with pytest.raises(WorkerError):
                scan(ExplodingModel(), scene, n_workers=2, pool=pool)
            result = scan(model, scene, n_workers=2, pool=pool)
            assert pool.stats["workers_revived"] == 0
        assert list(result) == list(sequential)

    def test_closed_pool_rejects_work(self, model):
        pool = WorkerPool(1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.ensure_model(model)


class TestDispatchDeadline:
    """A wedged or killed worker never stalls a pooled scan: the pool's
    policy kills and replaces it, and the scan finishes."""

    def test_hung_workers_are_killed_and_revived(self, model, scene,
                                                 tmp_path):
        sequential = scan(model, scene, n_workers=1)
        policy = SupervisionPolicy(shard_deadline_s=1.0)
        t0 = time.monotonic()
        with WorkerPool(2, supervision=policy) as pool:
            result = scan(faulty(model, tmp_path, "hang"), scene,
                          n_workers=2, pool=pool)
            assert pool.stats["workers_killed"] == 2
            assert result.supervision.deadline_kills == 2
            # the pool came back with fresh workers and stays usable
            again = scan(model, scene, n_workers=2, pool=pool)
        assert time.monotonic() - t0 < 30.0
        assert list(result) == list(again) == list(sequential)

    def test_sigkill_mid_shard_leaks_no_shm_slabs(self, model, scene,
                                                  tmp_path):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm to observe")
        before = set(os.listdir("/dev/shm"))
        with WorkerPool(2) as pool:
            result = scan(faulty(model, tmp_path, "kill"), scene,
                          n_workers=2, pool=pool)
            assert result.supervision.worker_deaths == 2
        after = set(os.listdir("/dev/shm"))
        leaked = {name for name in after - before if name.startswith("psm_")}
        assert leaked == set()
