"""InferenceService.scan_scene: one ``repro.detect.scan_scene`` call on
the service's engine, inline or over the service-owned pool."""

import threading
from dataclasses import replace

import pytest

from repro.arch import ConvSpec, PoolSpec, SPPNetConfig
from repro.detect import SPPNetDetector, scan_origins, scan_scene
from repro.faults import corrupt_scene
from repro.geo import WatershedConfig, build_scene
from repro.robust import SanitizePolicy
from repro.serve import BatchPolicy, InferenceService

ARCH = SPPNetConfig(
    convs=(ConvSpec(8, 3, 1),), pools=(PoolSpec(2, 2),),
    spp_levels=(2, 1), fc_sizes=(32,), name="scan-method-test",
)
# batch 4, so the 9-origin scene makes two shards under n_workers=2: at
# the default 20 the scan inlines (and says so with a RuntimeWarning)
KWARGS = dict(window=64, stride=64, confidence_threshold=0.3, batch_size=4)
WAIT = 10.0


@pytest.fixture(scope="module")
def model():
    detector = SPPNetDetector(ARCH, seed=0)
    detector.eval()
    return detector


@pytest.fixture(scope="module")
def scene():
    return build_scene(WatershedConfig(size=192, road_spacing=64,
                                       stream_threshold=600, seed=5))


@pytest.fixture(scope="module")
def damaged(scene):
    """The scene with a third of its tiles corrupted (three of nine), so
    a sanitized scan repairs some."""
    origins = scan_origins(scene.size, KWARGS["window"], KWARGS["stride"])
    image, _ = corrupt_scene(scene.image, origins, KWARGS["window"],
                             fraction=0.34, seed=1)
    return replace(scene, image=image)


@pytest.fixture(scope="module")
def service(model):
    """One service for the equivalence matrix, so its lazily created
    scan pool is spawned once."""
    with InferenceService(model, BatchPolicy(max_batch=8)) as svc:
        yield svc


class TestScanMethod:
    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("robust", ["plain", "sanitize", "journal",
                                        "sanitize+journal"])
    def test_service_scan_is_scan_scene(self, model, service, damaged,
                                        tmp_path, n_workers, robust):
        """Bit for bit, coverage and journal bytes included."""
        def scan(run, name):
            kwargs = dict(KWARGS, n_workers=n_workers)
            if "sanitize" in robust:
                kwargs["sanitize"] = SanitizePolicy.for_scene()
            if "journal" in robust:
                kwargs["journal"] = tmp_path / name
            return run(damaged, **kwargs)

        before = service.metrics.snapshot()
        served = scan(service.scan_scene, "served.jsonl")
        local = scan(lambda *a, **k: scan_scene(model, *a, **k),
                     "local.jsonl")
        after = service.metrics.snapshot()
        assert list(served) == list(local)
        assert served.coverage == local.coverage
        if "journal" in robust:
            assert ((tmp_path / "served.jsonl").read_bytes()
                    == (tmp_path / "local.jsonl").read_bytes())
        assert after["scans"] - before["scans"] == 1
        assert (after["scan_tiles"] - before["scan_tiles"]
                == served.coverage.tiles_total)

    def test_resume_replays_a_journaled_service_scan(self, service, damaged,
                                                     tmp_path):
        journal = tmp_path / "scan.jsonl"
        first = service.scan_scene(damaged, journal=journal, **KWARGS)
        again = service.scan_scene(damaged, journal=journal, resume=True,
                                   **KWARGS)
        assert list(again) == list(first)
        assert again.coverage.tiles_resumed == first.coverage.tiles_total

    def test_bulk_path_matches_local_scan(self, model, scene):
        local = scan_scene(model, scene, **KWARGS)
        with InferenceService(model, BatchPolicy(max_batch=8),
                              cache_size=0) as service:
            served = service.scan_scene(scene, n_workers=2, **KWARGS)
            snap = service.metrics.snapshot()
        assert list(served) == list(local)
        assert served.coverage == local.coverage
        assert snap["scans"] == 1
        assert snap["scan_tiles"] == served.coverage.tiles_total

    def test_a_request_is_not_starved_by_a_running_scan(self, model, scene,
                                                        monkeypatch):
        """A chip submitted while ``scan_scene`` runs on another thread is
        answered before the scan returns.  The scan takes the engine lock
        per micro-batch (7 of them here), so the chip's batch runs
        between two of them instead of queueing behind the whole scan.
        The scan pauses after its first micro-batch until the chip is
        answered (at most ``WAIT``), so the order is the test's, not the
        scheduler's."""
        from repro.engine import CompiledModel

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
                scans.append(service.scan_scene(scene, **kwargs))
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


class TestScanPool:
    """The service-owned persistent pool and thread-safe start methods."""

    def test_scan_from_threaded_service_prefers_spawn(self, model):
        # regression: the batcher/worker threads make fork unsafe, so a
        # scan issued while the service runs must pick spawn
        from repro.scanpar import default_start_method

        with InferenceService(model, BatchPolicy(max_batch=8)):
            assert default_start_method() == "spawn"

    def test_startup_pool_is_warm_and_closed_on_shutdown(self, model, scene):
        local = scan_scene(model, scene, **KWARGS)
        with InferenceService(model, BatchPolicy(max_batch=8),
                              scan_workers=2) as service:
            pool = service._scan_pool
            assert pool is not None and pool.n_workers == 2
            # the model was delivered at startup, before any scan
            assert pool.stats["model_sends"] == 2
            served = service.scan_scene(scene, n_workers=2, **KWARGS)
            assert list(served) == list(local)
            assert pool.stats["runs"] == 1
            assert pool.stats["model_sends"] == 2  # no re-send
        assert pool.closed
        assert service._scan_pool is None

    def test_lazy_pool_created_once_and_closed(self, model, scene):
        local = scan_scene(model, scene, **KWARGS)
        with InferenceService(model, BatchPolicy(max_batch=8)) as service:
            assert service._scan_pool is None
            first = service.scan_scene(scene, n_workers=2, **KWARGS)
            pool = service._scan_pool
            assert pool is not None
            second = service.scan_scene(scene, n_workers=2, **KWARGS)
            assert service._scan_pool is pool
            assert pool.stats["workers_spawned"] == 2
            assert pool.stats["runs"] == 2
        assert pool.closed
        assert list(first) == list(second) == list(local)

    def test_scan_workers_validation(self, model):
        with pytest.raises(ValueError, match="scan_workers"):
            InferenceService(model, BatchPolicy(max_batch=8),
                             scan_workers=0)
