"""Service-side fleet integration: request deadlines, supervision
metrics, and the scan_many sweep."""

import pytest

from repro.arch import ConvSpec, PoolSpec, SPPNetConfig
from repro.detect import SPPNetDetector
from repro.detect.scan import ScanDeadlineError, scan_origins
from repro.fleet import SupervisionReport
from repro.geo import WatershedConfig, build_scene
from repro.serve import BatchPolicy, InferenceService
from repro.serve.metrics import ServiceMetrics

ARCH = SPPNetConfig(
    convs=(ConvSpec(8, 3, 1),), pools=(PoolSpec(2, 2),),
    spp_levels=(2, 1), fc_sizes=(32,), name="scan-fleet-test",
)
SCENE_CONFIG = WatershedConfig(size=192, road_spacing=64,
                               stream_threshold=600, seed=5)
KWARGS = dict(window=64, stride=64, confidence_threshold=0.3)


@pytest.fixture(scope="module")
def model():
    detector = SPPNetDetector(ARCH, seed=0)
    detector.eval()
    return detector


@pytest.fixture(scope="module")
def scene():
    return build_scene(SCENE_CONFIG)


class TestRequestDeadline:
    def test_expired_timeout_raises_and_counts(self, model, scene):
        with InferenceService(model, BatchPolicy(max_batch=8),
                              cache_size=0) as service:
            with pytest.raises(ScanDeadlineError):
                service.scan_scene(scene, timeout_s=1e-9, **KWARGS)
            snap = service.metrics.snapshot()
        assert snap["scan_deadline_expired"] == 1

    def test_generous_timeout_scans_normally(self, model, scene):
        with InferenceService(model, BatchPolicy(max_batch=8),
                              cache_size=0) as service:
            result = service.scan_scene(scene, timeout_s=300.0, **KWARGS)
            snap = service.metrics.snapshot()
        assert len(list(result)) >= 0
        assert snap["scan_deadline_expired"] == 0
        assert snap["scans"] == 1

    def test_timeout_validation(self, model, scene):
        with InferenceService(model, BatchPolicy(max_batch=8)) as service:
            with pytest.raises(ValueError, match="timeout_s"):
                service.scan_scene(scene, timeout_s=0.0, **KWARGS)


class TestSupervisionMetrics:
    def test_record_supervision_folds_report(self):
        metrics = ServiceMetrics()
        report = SupervisionReport(
            shards_total=4, deadline_kills=1, worker_deaths=2,
            workers_replaced=3, redispatches=3,
            poison_shards=[1], inline_shards=[1],
        )
        metrics.record_supervision(report.to_json())
        snap = metrics.snapshot()
        assert snap["scan_redispatches"] == 3
        assert snap["scan_workers_killed"] == 1
        assert snap["scan_worker_deaths"] == 2
        assert snap["scan_poison_shards"] == 1
        assert snap["scan_inline_shards"] == 1
        assert snap["scan_deadline_expired"] == 0

    def test_record_supervision_none_is_noop(self):
        metrics = ServiceMetrics()
        metrics.record_supervision(None)
        snap = metrics.snapshot()
        assert snap["scan_redispatches"] == 0
        assert snap["scan_worker_deaths"] == 0

    def test_supervised_bulk_scan_reports_clean(self, model, scene):
        with InferenceService(model, BatchPolicy(max_batch=8),
                              cache_size=0) as service:
            result = service.scan_scene(scene, n_workers=2,
                                        supervision=True,
                                        batch_size=4, **KWARGS)
            snap = service.metrics.snapshot()
        assert result.supervision is not None
        assert snap["scan_redispatches"] == 0
        assert snap["scan_worker_deaths"] == 0
        assert snap["scan_poison_shards"] == 0


class TestScanMany:
    def test_sweep_completes_and_feeds_metrics(self, model, scene,
                                               tmp_path):
        n_tiles = len(scan_origins(scene.size, 100, 50))
        with InferenceService(model, BatchPolicy(max_batch=8),
                              cache_size=0) as service:
            summary = service.scan_many({"j1": SCENE_CONFIG},
                                        workdir=tmp_path, n_workers=1)
            snap = service.metrics.snapshot()
        assert summary["counts"]["done"] == 1
        assert summary["dead_letters"] == {}
        assert summary["results"]["j1"]["tiles_total"] == n_tiles
        assert snap["scans"] == 1
        assert snap["scan_tiles"] == n_tiles
        assert (tmp_path / "queue.jsonl").exists()
        assert (tmp_path / "j1.journal.jsonl").exists()

    def test_resubmitted_sweep_is_idempotent(self, model, scene, tmp_path):
        with InferenceService(model, BatchPolicy(max_batch=8),
                              cache_size=0) as service:
            first = service.scan_many({"j1": SCENE_CONFIG},
                                      workdir=tmp_path, n_workers=1)
            again = service.scan_many({"j1": SCENE_CONFIG},
                                      workdir=tmp_path, n_workers=1)
        assert first["counts"]["done"] == 1
        # the drained queue replays: nothing reruns, nothing double-counts
        assert again["counts"]["done"] == 1
        assert again["jobs_run"] == 0
