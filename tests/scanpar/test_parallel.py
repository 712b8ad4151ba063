"""Parallel sharded scanning reproduces the sequential scan exactly."""

from dataclasses import replace

import pytest

from repro.arch import ConvSpec, PoolSpec, SPPNetConfig
from repro.detect import SPPNetDetector, scan_scene
from repro.detect.scan import scan_origins
from repro.faults import corrupt_scene
from repro.geo import WatershedConfig, build_scene
from repro.robust import ScanJournal

WINDOW = 100
SCENE_SIZE = 200


@pytest.fixture(scope="module")
def scene():
    return build_scene(WatershedConfig(size=SCENE_SIZE, road_spacing=64,
                                       stream_threshold=600, seed=5))


@pytest.fixture(scope="module")
def model():
    arch = SPPNetConfig(
        convs=(ConvSpec(8, 3, 1),), pools=(PoolSpec(2, 2),),
        spp_levels=(2, 1), fc_sizes=(32,), name="scanpar-test",
    )
    detector = SPPNetDetector(arch, seed=0)
    detector.eval()
    return detector


def scan(model, scene, **kwargs):
    kwargs.setdefault("window", WINDOW)
    kwargs.setdefault("stride", 50)
    kwargs.setdefault("confidence_threshold", 0.3)
    # small batches so this 9-origin scene still splits into >= 2
    # micro-batch-aligned shards (one-shard scans inline to sequential)
    kwargs.setdefault("batch_size", 4)
    return scan_scene(model, scene, **kwargs)


def assert_identical(parallel, sequential):
    assert list(parallel) == list(sequential)
    assert parallel.coverage == sequential.coverage


class TestParity:
    def test_two_workers_match_sequential(self, model, scene):
        sequential = scan(model, scene)
        assert_identical(scan(model, scene, n_workers=2), sequential)

    def test_one_worker_is_the_sequential_scan(self, model, scene):
        assert_identical(scan(model, scene, n_workers=1), scan(model, scene))

    @pytest.mark.slow  # 3 strides x 2 backends x 3 worker counts
    @pytest.mark.parametrize("backend", ["eager", "engine"])
    @pytest.mark.parametrize("stride", [25, 50, 100])
    def test_sweep_matches_sequential(self, model, scene, backend, stride):
        sequential = scan(model, scene, stride=stride, backend=backend)
        assert len(scan_origins(scene.size, WINDOW, stride)) > 1
        for n_workers in (1, 2, 4):
            parallel = scan(model, scene, stride=stride, backend=backend,
                            n_workers=n_workers)
            assert_identical(parallel, sequential)

    def test_spawn_start_method_matches_fork(self, model, scene):
        from repro.scanpar import parallel_scan_scene

        sequential = scan(model, scene)
        spawned = parallel_scan_scene(
            model, scene, window=WINDOW, stride=50,
            confidence_threshold=0.3, batch_size=4, n_workers=2,
            start_method="spawn",
        )
        assert_identical(spawned, sequential)

    def test_cold_private_pool_matches_warm_shared_pool(self, model, scene):
        from repro.scanpar import parallel_scan_scene

        sequential = scan(model, scene)
        pooled = scan(model, scene, n_workers=2)  # shared persistent pool
        cold = parallel_scan_scene(
            model, scene, window=WINDOW, stride=50,
            confidence_threshold=0.3, batch_size=4, n_workers=2,
            reuse_pool=False,
        )
        assert_identical(pooled, sequential)
        assert_identical(cold, sequential)

    @pytest.mark.slow  # spawn pays an interpreter boot per worker
    @pytest.mark.parametrize("backend", ["eager", "engine"])
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_pooled_backend_start_method_matrix(self, model, scene,
                                                backend, start_method):
        import multiprocessing as mp

        from repro.scanpar import parallel_scan_scene

        if start_method not in mp.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable")
        sequential = scan(model, scene, backend=backend)
        pooled = parallel_scan_scene(
            model, scene, window=WINDOW, stride=50,
            confidence_threshold=0.3, batch_size=4, backend=backend,
            n_workers=2, start_method=start_method,
        )
        assert_identical(pooled, sequential)


class TestSlabFallback:
    """A shard that cannot use its result slab returns inline — counted
    and warned, never silent (ROADMAP "Loud fallbacks")."""

    @pytest.mark.parametrize("backend", ["eager", "engine"])
    def test_clean_scans_fire_none(self, model, scene, backend,
                                   recwarn):
        from repro.scanpar import WorkerPool

        with WorkerPool(2) as pool:
            scan(model, scene, backend=backend, n_workers=2, pool=pool)
            assert pool.stats["slab_fallbacks"] == 0
        assert not [w for w in recwarn if "slab" in str(w.message)]

    def test_wrong_slab_dtype_fires_once_and_stays_identical(
            self, model, scene, monkeypatch):
        import numpy as np

        from repro.scanpar import WorkerPool, parallel

        sequential = scan(model, scene, backend="engine")
        # float32 engine results into float64 slabs
        monkeypatch.setitem(parallel._RESULT_DTYPES, "engine", np.float64)
        with WorkerPool(2) as pool:
            with pytest.warns(RuntimeWarning, match="inline") as caught:
                forced = scan(model, scene, backend="engine", n_workers=2,
                              pool=pool)
            assert pool.stats["slab_fallbacks"] == 2    # one per shard
        assert len(caught) == 1
        assert "float32" in str(caught[0].message) \
            and "float64" in str(caught[0].message)
        assert_identical(forced, sequential)


class TestValidation:
    def test_zero_workers_rejected(self, model, scene):
        with pytest.raises(ValueError, match="n_workers"):
            scan(model, scene, n_workers=0)

    def test_service_scan_cannot_shard(self, model, scene):
        class FakeService:
            pass

        with pytest.raises(ValueError, match="n_workers=1"):
            scan(model, scene, service=FakeService(), n_workers=2)


class TestRobustParallel:
    @pytest.fixture()
    def corrupted(self, scene):
        origins = scan_origins(scene.size, WINDOW, 50)
        image, applied = corrupt_scene(scene.image, origins, WINDOW,
                                       fraction=0.3, seed=7)
        assert applied
        return replace(scene, image=image)

    def test_corrupt_tiles_scan_identically(self, model, corrupted, tmp_path):
        sequential = scan(model, corrupted,
                          journal=str(tmp_path / "seq.jsonl"))
        parallel = scan(model, corrupted,
                        journal=str(tmp_path / "par.jsonl"), n_workers=2)
        assert_identical(parallel, sequential)
        assert parallel.coverage.tiles_repaired > 0

    def test_shard_journals_absorbed_into_main(self, model, corrupted,
                                               tmp_path):
        journal = ScanJournal(tmp_path / "scan.jsonl")
        result = scan(model, corrupted, journal=journal, n_workers=2)
        assert journal.shard_paths() == []
        _, records = journal.load()
        assert len(records) == result.coverage.tiles_total
        assert [rec.index for rec in records] == sorted(
            rec.index for rec in records
        )

    def test_parallel_journal_resumes_sequentially(self, model, corrupted,
                                                   tmp_path):
        # full parallel scan writes the reference journal
        full = scan(model, corrupted, journal=str(tmp_path / "full.jsonl"),
                    n_workers=2)
        # keep the header and half the records, as if killed mid-scan
        lines = (tmp_path / "full.jsonl").read_text().splitlines()
        partial = tmp_path / "partial.jsonl"
        partial.write_text("\n".join(lines[:1 + (len(lines) - 1) // 2]) + "\n")

        resumed = scan(model, corrupted, journal=str(partial), resume=True)
        assert list(resumed) == list(full)
        assert resumed.coverage.tiles_resumed > 0

    def test_sequential_journal_resumes_in_parallel(self, model, corrupted,
                                                    tmp_path):
        full = scan(model, corrupted, journal=str(tmp_path / "full.jsonl"))
        lines = (tmp_path / "full.jsonl").read_text().splitlines()
        partial = tmp_path / "partial.jsonl"
        partial.write_text("\n".join(lines[:1 + (len(lines) - 1) // 2]) + "\n")

        resumed = scan(model, corrupted, journal=str(partial), resume=True,
                       n_workers=2)
        assert list(resumed) == list(full)
        assert resumed.coverage.tiles_resumed > 0
