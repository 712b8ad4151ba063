"""InferenceService.scan_scene: request-path and bulk-parallel scans."""

from dataclasses import fields

import numpy as np
import pytest

from repro.arch import ConvSpec, PoolSpec, SPPNetConfig
from repro.detect import SPPNetDetector, scan_scene
from repro.geo import WatershedConfig, build_scene
from repro.serve import BatchPolicy, InferenceService

ARCH = SPPNetConfig(
    convs=(ConvSpec(8, 3, 1),), pools=(PoolSpec(2, 2),),
    spp_levels=(2, 1), fc_sizes=(32,), name="scan-method-test",
)
KWARGS = dict(window=64, stride=64, confidence_threshold=0.3)


@pytest.fixture(scope="module")
def model():
    detector = SPPNetDetector(ARCH, seed=0)
    detector.eval()
    return detector


@pytest.fixture(scope="module")
def scene():
    return build_scene(WatershedConfig(size=192, road_spacing=64,
                                       stream_threshold=600, seed=5))


def assert_same_detections(served, local, ulps: int = 4) -> None:
    """Same detections in the same order, float fields within ``ulps``
    units in the last place.

    A served scan's batch composition depends on batcher timing, and a
    GEMM's low-order bits depend on which rows share the call, so exact
    equality with a local scan is not a contract here (it is where
    composition is pinned: the tests/scanpar parity matrix).
    """
    assert len(served) == len(local)
    for got, want in zip(served, local):
        for field in fields(want):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert abs(a - b) <= ulps * np.spacing(max(abs(a), abs(b))), (
                f"{field.name}: {a!r} vs {b!r}")


class TestScanMethod:
    def test_request_path_matches_local_scan(self, model, scene):
        local = scan_scene(model, scene, **KWARGS)
        with InferenceService(model, BatchPolicy(max_batch=8),
                              cache_size=0) as service:
            served = service.scan_scene(scene, **KWARGS)
            snap = service.metrics.snapshot()
        assert_same_detections(served, local)
        assert snap["scans"] == 1
        assert snap["scan_tiles"] == served.coverage.tiles_total

    def test_bulk_path_matches_local_scan(self, model, scene):
        # batch 4, so the 9-origin scene makes two shards: at the default
        # 20 the scan inlines (and now says so with a RuntimeWarning)
        kwargs = dict(KWARGS, batch_size=4)
        local = scan_scene(model, scene, **kwargs)
        with InferenceService(model, BatchPolicy(max_batch=8),
                              cache_size=0) as service:
            served = service.scan_scene(scene, n_workers=2, **kwargs)
            snap = service.metrics.snapshot()
        assert_same_detections(served, local)
        assert served.coverage == local.coverage
        assert snap["scans"] == 1
        assert snap["scan_tiles"] == served.coverage.tiles_total

    def test_request_path_rejects_sanitize(self, model, scene):
        """The robust stage runs the model locally; the request path
        cannot honour it (was ``scan_scene(service=, sanitize=)``)."""
        from repro.robust import SanitizePolicy

        with InferenceService(model, BatchPolicy(max_batch=8)) as service:
            with pytest.raises(ValueError, match="robust scanning"):
                service.scan_scene(scene, n_workers=1,
                                   sanitize=SanitizePolicy.for_scene(),
                                   **KWARGS)
            assert service.metrics.snapshot()["scans"] == 0

    def test_request_path_rejects_journal_and_resume(self, model, scene,
                                                     tmp_path):
        with InferenceService(model, BatchPolicy(max_batch=8)) as service:
            with pytest.raises(ValueError, match="robust scanning"):
                service.scan_scene(scene, n_workers=1,
                                   journal=tmp_path / "scan.jsonl", **KWARGS)
            with pytest.raises(ValueError, match="robust scanning"):
                service.scan_scene(scene, n_workers=1, resume=True, **KWARGS)
        assert not (tmp_path / "scan.jsonl").exists()

    def test_request_path_accepts_batch_size_and_backend(self, model, scene):
        """Accepted and without effect there: the service cuts its own
        batches on its own backend."""
        with InferenceService(model, BatchPolicy(max_batch=8),
                              cache_size=0) as service:
            plain = service.scan_scene(scene, **KWARGS)
            spelled = service.scan_scene(scene, batch_size=3,
                                         backend="engine", **KWARGS)
            assert service.backend == "eager"
        assert_same_detections(spelled, plain)

    def test_bulk_path_rejects_custom_backend(self, model, scene):
        def fake_predict(model, stack, batch_size):
            n = len(stack)
            return (np.zeros(n, dtype=np.float32),
                    np.zeros((n, 4), dtype=np.float32))

        with InferenceService(model, BatchPolicy(max_batch=8),
                              predict_fn=fake_predict) as service:
            with pytest.raises(ValueError, match="bulk parallel"):
                service.scan_scene(scene, n_workers=2, **KWARGS)


class TestScanPool:
    """The service-owned persistent pool and thread-safe start methods."""

    # small batches so the 9-origin scene shards across 2 workers
    # instead of inlining (shards snap to micro-batch boundaries)
    POOL_KWARGS = dict(KWARGS, batch_size=4)

    def test_scan_from_threaded_service_prefers_spawn(self, model):
        # regression: the batcher/worker threads make fork unsafe, so a
        # scan issued while the service runs must pick spawn
        from repro.scanpar import default_start_method

        with InferenceService(model, BatchPolicy(max_batch=8)):
            assert default_start_method() == "spawn"

    def test_startup_pool_is_warm_and_closed_on_shutdown(self, model, scene):
        local = scan_scene(model, scene, **self.POOL_KWARGS)
        with InferenceService(model, BatchPolicy(max_batch=8),
                              scan_workers=2) as service:
            pool = service._scan_pool
            assert pool is not None and pool.n_workers == 2
            # the model was delivered at startup, before any scan
            assert pool.stats["model_sends"] == 2
            served = service.scan_scene(scene, n_workers=2,
                                        **self.POOL_KWARGS)
            assert list(served) == list(local)
            assert pool.stats["runs"] == 1
            assert pool.stats["model_sends"] == 2  # no re-send
        assert pool.closed
        assert service._scan_pool is None

    def test_lazy_pool_created_once_and_closed(self, model, scene):
        local = scan_scene(model, scene, **self.POOL_KWARGS)
        with InferenceService(model, BatchPolicy(max_batch=8)) as service:
            assert service._scan_pool is None
            first = service.scan_scene(scene, n_workers=2,
                                       **self.POOL_KWARGS)
            pool = service._scan_pool
            assert pool is not None
            second = service.scan_scene(scene, n_workers=2,
                                        **self.POOL_KWARGS)
            assert service._scan_pool is pool
            assert pool.stats["workers_spawned"] == 2
            assert pool.stats["runs"] == 2
        assert pool.closed
        assert list(first) == list(second) == list(local)

    def test_scan_workers_validation(self, model):
        with pytest.raises(ValueError, match="scan_workers"):
            InferenceService(model, BatchPolicy(max_batch=8),
                             scan_workers=0)
