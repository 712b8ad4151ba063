"""Full-scene scanning detection and NMS."""

import json

import pytest

from repro.detect import (
    SceneDetection,
    evaluate_scene_detections,
    non_max_suppression,
    scan_origins,
    scan_scene,
)
from repro.geo import Crossing


def det(r, c, conf, size=12.0):
    return SceneDetection(row=r, col=c, height=size, width=size, confidence=conf)


class TestNMS:
    def test_keeps_most_confident(self):
        kept = non_max_suppression([det(10, 10, 0.6), det(12, 12, 0.9)], radius=10)
        assert len(kept) == 1 and kept[0].confidence == 0.9

    def test_distant_detections_survive(self):
        kept = non_max_suppression([det(10, 10, 0.6), det(80, 80, 0.9)], radius=10)
        assert len(kept) == 2

    def test_empty_input(self):
        assert non_max_suppression([], radius=10) == []

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            non_max_suppression([], radius=0)

    def test_chain_suppression_is_greedy(self):
        """A mid-confidence detection suppressed by the best does not
        itself suppress a far third."""
        kept = non_max_suppression(
            [det(0, 0, 0.9), det(0, 9, 0.8), det(0, 18, 0.7)], radius=10
        )
        assert [k.confidence for k in kept] == [0.9, 0.7]

    def test_confidence_ties_keep_one(self):
        """Equal-confidence neighbors: exactly one survives (stable
        greedy pass, no mutual suppression dropping both)."""
        kept = non_max_suppression([det(10, 10, 0.8), det(12, 12, 0.8)],
                                   radius=10)
        assert len(kept) == 1 and kept[0].confidence == 0.8

    def test_distance_exactly_radius_is_suppressed(self):
        """Boundary pin: survival requires distance strictly greater
        than radius, so distance == radius is still suppressed."""
        kept = non_max_suppression([det(0, 0, 0.9), det(0, 10, 0.8)],
                                   radius=10)
        assert len(kept) == 1
        kept = non_max_suppression([det(0, 0, 0.9), det(0, 10.001, 0.8)],
                                   radius=10)
        assert len(kept) == 2


class TestEvaluate:
    def gts(self):
        return [Crossing(20, 20, 10, 10), Crossing(60, 60, 10, 10)]

    def test_perfect_matching(self):
        scores = evaluate_scene_detections(
            [det(20, 20, 0.9), det(61, 59, 0.8)], self.gts()
        )
        assert scores.true_positives == 2
        assert scores.precision == 1.0 and scores.recall == 1.0
        assert scores.f1 == 1.0

    def test_misses_counted(self):
        scores = evaluate_scene_detections([det(20, 20, 0.9)], self.gts())
        assert scores.false_negatives == 1
        assert scores.recall == 0.5

    def test_false_positive_counted(self):
        scores = evaluate_scene_detections(
            [det(20, 20, 0.9), det(100, 100, 0.9)], self.gts()
        )
        assert scores.false_positives == 1

    def test_one_to_one_matching(self):
        """Two detections cannot both claim the same ground truth."""
        scores = evaluate_scene_detections(
            [det(20, 20, 0.9), det(21, 21, 0.8)], self.gts()
        )
        assert scores.true_positives == 1
        assert scores.false_positives == 1

    def test_match_radius_respected(self):
        scores = evaluate_scene_detections([det(40, 40, 0.9)], self.gts(),
                                           match_radius=5.0)
        assert scores.true_positives == 0

    def test_empty_cases(self):
        scores = evaluate_scene_detections([], self.gts())
        assert scores.recall == 0.0 and scores.precision == 0.0
        assert scores.mean_center_error == 0.0

    def test_zero_matches_serializes_to_valid_json(self):
        """No-match scores must round-trip through strict JSON — the
        spec has no NaN literal, so mean_center_error is 0.0, never NaN."""
        scores = evaluate_scene_detections([det(100, 100, 0.9)], self.gts())
        assert scores.true_positives == 0
        payload = json.dumps({"mean_center_error": scores.mean_center_error},
                             allow_nan=False)
        assert json.loads(payload)["mean_center_error"] == 0.0


class TestScanOrigins:
    def test_exact_multiple(self):
        origins = scan_origins(192, 64, 64)
        rows = sorted({r for r, _ in origins})
        assert rows == [0, 64, 128]

    def test_remainder_stride_appends_final_origin(self):
        """size - window not a multiple of stride: the trailing origin
        still reaches the scene edge and no origin is duplicated."""
        origins = scan_origins(100, 30, 25)  # size-window = 70, stride 25
        rows = sorted({r for r, _ in origins})
        assert rows == [0, 25, 50, 70]
        assert len(origins) == len(set(origins))
        covered = set()
        for r, _ in origins:
            covered.update(range(r, r + 30))
        assert covered == set(range(100))

    def test_window_equals_scene(self):
        assert scan_origins(64, 64, 50) == [(0, 0)]

    def test_validation(self):
        with pytest.raises(ValueError):
            scan_origins(64, 100, 10)
        with pytest.raises(ValueError):
            scan_origins(64, 32, 0)


class TestScanSpec:
    """``ScanSpec`` owns the five values that define a scan's result:
    their defaults, their checks, the origins and the journal header."""

    def test_defaults_are_scan_scenes(self):
        import inspect
        from dataclasses import asdict

        from repro.detect import ScanSpec

        params = inspect.signature(scan_scene).parameters
        assert asdict(ScanSpec()) == {
            name: params[name].default for name in asdict(ScanSpec())}

    @pytest.mark.parametrize("field, value", [
        ("window", 0), ("window", -5), ("window", 100.5), ("window", True),
        ("window", "100"), ("stride", 0), ("batch_size", 0),
        ("batch_size", 1.0), ("confidence_threshold", float("nan")),
        ("confidence_threshold", "0.5"), ("nms_radius", 0),
        ("nms_radius", float("nan")), ("nms_radius", -3.0)])
    def test_an_invalid_value_raises_naming_its_field(self, field, value):
        from repro.detect import ScanSpec

        with pytest.raises(ValueError, match=field):
            ScanSpec(**{field: value})
        with pytest.raises(ValueError, match=field):
            ScanSpec.from_json({field: value})

    def test_from_json_takes_defaults_and_refuses_unknown_keys(self):
        from repro.detect import ScanSpec

        assert ScanSpec.from_json({}) == ScanSpec()
        assert ScanSpec.from_json({"window": 64, "stride": 32}) \
            == ScanSpec(window=64, stride=32)
        with pytest.raises(ValueError, match=r"unsupported scan parameters "
                                             r"\['n_workers'\]"):
            ScanSpec.from_json({"window": 64, "n_workers": 2})

    def test_origins_are_scan_origins(self):
        from repro.detect import ScanSpec

        spec = ScanSpec(window=30, stride=25)
        assert spec.origins(100) == scan_origins(100, 30, 25)
        with pytest.raises(ValueError, match="exceeds scene size"):
            ScanSpec().origins(64)

    def test_journal_header_keeps_its_keys_and_their_order(self):
        from repro.blas import blas_info
        from repro.detect import ScanSpec

        header = ScanSpec(window=64, stride=32, confidence_threshold=0.3,
                          nms_radius=5.0, batch_size=4).journal_header(200, 4)
        assert list(header) == ["scene_size", "bands", "window", "stride",
                                "confidence_threshold", "backend",
                                "repair_cell", "blas"]
        assert header["blas"] == {k: v for k, v in blas_info().items()
                                  if k != "why"}
        assert (header["window"], header["stride"],
                header["confidence_threshold"]) == (64, 32, 0.3)
        assert ScanSpec(window=65).journal_header(200, 4)["repair_cell"] == 33


class TestScanScene:
    @pytest.fixture(scope="class")
    def scene(self, watershed):
        return watershed(192)

    def test_untrained_model_runs_and_respects_threshold(self, scene):
        from repro.arch import ConvSpec, PoolSpec, SPPNetConfig
        from repro.detect import SPPNetDetector

        arch = SPPNetConfig(
            convs=(ConvSpec(8, 3, 1), ConvSpec(16, 3, 1)),
            pools=(PoolSpec(2, 2), PoolSpec(2, 2)),
            spp_levels=(2, 1), fc_sizes=(32,), name="scan-test",
        )
        model = SPPNetDetector(arch, seed=0)
        detections = scan_scene(model, scene, window=64, stride=48,
                                confidence_threshold=0.99)
        for d in detections:
            assert d.confidence >= 0.99
            assert 0 <= d.row < scene.size and 0 <= d.col < scene.size

    def test_window_validation(self, scene, small_detector):
        with pytest.raises(ValueError):
            scan_scene(small_detector, scene, window=1000)


class TestBatchSeam:
    """``scan_span``'s batched stage: micro-batches pulled from
    ``CompiledModel.predict_windows``, the one generator the sequential
    scan and every pool shard run."""

    @pytest.fixture(scope="class")
    def scene(self, watershed):
        return watershed(192)

    @pytest.fixture(scope="class")
    def model(self):
        from repro.arch import ConvSpec, PoolSpec, SPPNetConfig
        from repro.detect import SPPNetDetector

        arch = SPPNetConfig(
            convs=(ConvSpec(8, 3, 1), ConvSpec(16, 3, 1)),
            pools=(PoolSpec(2, 2), PoolSpec(2, 2)),
            spp_levels=(2, 1), fc_sizes=(32,), name="scan-seam",
        )
        return SPPNetDetector(arch, seed=0).eval()

    @pytest.mark.parametrize("oracle", ["eager", "engine"])
    def test_batches_are_predict_over_the_window_stacks(self, model, scene,
                                                        oracle):
        """A span's outputs are ``predict`` over its window stacks:
        bitwise against the per-window engine, within float32 tolerance
        against the eager oracle."""
        import numpy as np

        from repro.detect import ScanSpec, predict
        from repro.detect.scan import scan_span
        from repro.scanpar import TileSource

        spec = ScanSpec(window=64, stride=32, confidence_threshold=0.5,
                        batch_size=6)
        origins = spec.origins(scene.size)
        payload = scan_span(model, scene.image, origins, (6, 20), spec)
        parts = [predict(model, stack, batch_size=len(stack), backend=oracle)
                 for _, stack in TileSource(scene.image, 64, 6).batches(
                     origins[6:20])]
        ref_conf = np.concatenate([conf for conf, _ in parts])
        ref_box = np.concatenate([box for _, box in parts])
        if oracle == "engine":
            assert payload["confidences"].tobytes() == ref_conf.tobytes()
            assert payload["boxes"].tobytes() == ref_box.tobytes()
        else:
            np.testing.assert_allclose(payload["confidences"], ref_conf,
                                       atol=1e-5)
            np.testing.assert_allclose(payload["boxes"], ref_box, atol=1e-5)

    def test_engine_scan_shares_feature_maps_and_keeps_its_detections(
            self, model, scene):
        import numpy as np

        from dataclasses import asdict

        from repro.detect import ScanSpec, predict
        from repro.detect.scan import _detections_from_outputs
        from repro.engine import compiled_for
        from repro.scanpar import TileSource

        spec = ScanSpec(window=64, stride=32, confidence_threshold=0.3,
                        batch_size=6)
        scanned = scan_scene(model, scene, **asdict(spec))
        origins = spec.origins(scene.size)
        plan = compiled_for(model).window_plan(scene.image.shape, 64, origins)
        assert plan.reason is None and plan.shared == ("pool1", "pool2")
        parts = [predict(model, stack, batch_size=len(stack),
                         backend="engine")
                 for _, stack in TileSource(scene.image, 64, 6).batches(
                     origins)]
        per_window = non_max_suppression(_detections_from_outputs(
            origins, np.concatenate([c for c, _ in parts]),
            np.concatenate([b for _, b in parts]), spec))
        assert list(scanned) == per_window

    @pytest.mark.parametrize("backend", ["engine"])
    def test_deadline_is_checked_before_each_batch_is_pulled(
            self, model, scene, backend, monkeypatch):
        from repro.detect import scan as scan_mod
        from repro.detect.scan import ScanDeadlineError
        from repro.engine import CompiledModel

        pulled = []
        real = CompiledModel.predict_windows

        def counting(*args, **kwargs):
            for pair in real(*args, **kwargs):
                pulled.append(len(pair[0]))
                yield pair
        monkeypatch.setattr(CompiledModel, "predict_windows", counting)
        clock = iter([0.0, 0.0, 0.0, 10.0])
        monkeypatch.setattr(scan_mod.time, "monotonic", lambda: next(clock))
        with pytest.raises(ScanDeadlineError, match="after 12 of 25"):
            scan_scene(model, scene, window=64, stride=32, batch_size=6,
                       backend=backend, timeout_s=5.0)
        # start, then one check per pull: the third batch never ran
        assert pulled == [6, 6]


class TestOneBackend:
    """``backend=`` keeps one legal value, ``"engine"``, for the frozen
    benchmark harness that still passes it."""

    @pytest.fixture(scope="class")
    def scene(self, watershed):
        return watershed(128)

    def test_the_keyword_spelled_out_is_the_default_scan(self, scene,
                                                          small_detector):
        kwargs = dict(window=64, stride=32, confidence_threshold=0.0)
        default = scan_scene(small_detector, scene, **kwargs)
        spelled = scan_scene(small_detector, scene, backend="engine",
                             **kwargs)
        assert len(default) > 0 and list(spelled) == list(default)

    @pytest.mark.parametrize("backend", ["eager", "custom"])
    def test_any_other_backend_names_roadmap_item_1(self, scene,
                                                    small_detector, backend):
        from repro.scanpar import ShardTask

        with pytest.raises(ValueError, match="ROADMAP item 1"):
            scan_scene(small_detector, scene, backend=backend)
        with pytest.raises(ValueError, match="ROADMAP item 1"):
            ShardTask(shard_index=0, start=0, stop=1, shm={}, scene_size=128,
                      window=64, stride=32, batch_size=4,
                      confidence_threshold=0.5, backend=backend)
