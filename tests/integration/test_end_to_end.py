"""Cross-module integration: real chips through the full pipeline."""

import numpy as np
import pytest

from repro.arch import ConvSpec, PoolSpec, SPPNetConfig
from repro.detect import TrainConfig, evaluate_detector, train_detector
from repro.geo import build_dataset
from repro.hydro import (
    assess_connectivity,
    breach_dem,
    delineate_streams,
    priority_flood_fill,
)


pytestmark = pytest.mark.slow  # minutes-scale training/pipeline runs

SMALL_ARCH = SPPNetConfig(
    convs=(ConvSpec(8, 3, 1), ConvSpec(16, 3, 1), ConvSpec(32, 3, 1)),
    pools=(PoolSpec(2, 2), PoolSpec(2, 2), PoolSpec(2, 2)),
    spp_levels=(4, 2, 1),
    fc_sizes=(64,),
    name="small-sppnet",
)


@pytest.fixture(scope="module")
def chips():
    ds = build_dataset(num_scenes=1, chips_per_crossing=4, chip_size=64,
                       seed=21, scene_size=384)
    return ds.split(0.8, seed=0)


class TestDetectionOnRealChips:
    def test_small_model_learns_synthetic_crossings(self, chips):
        """End-to-end: synthetic watershed chips -> trained detector with
        meaningfully-better-than-chance classification.

        The tiny test architecture needs a higher learning rate than the
        paper's full-width models; augmentation doubles the small sample.
        """
        from repro.geo import augment_dataset

        train, test = chips
        result = train_detector(
            SMALL_ARCH, augment_dataset(train, seed=1), test,
            TrainConfig(epochs=10, batch_size=10, seed=0, learning_rate=0.02),
        )
        assert result.test_scores is not None
        assert result.test_scores.accuracy > 0.75
        loose = evaluate_detector(result.model, test, iou_threshold=0.1)
        assert loose.ap > 0.5

    def test_spp_accepts_full_scene_window(self, chips):
        """The trained (chip-sized) model runs on a larger window unchanged —
        the variable-input capability SPP exists for."""
        train, _ = chips
        result = train_detector(SMALL_ARCH, train, None,
                                TrainConfig(epochs=1, batch_size=10, seed=0))
        from repro.tensor import Tensor, no_grad

        big = np.random.default_rng(0).random((1, 4, 96, 96)).astype(np.float32)
        with no_grad():
            logits, boxes = result.model(Tensor(big))
        assert logits.shape == (1, 2) and boxes.shape == (1, 4)


class TestHydroOnScene:
    def test_breaching_at_true_crossings_improves_connectivity(self,
                                                               watershed):
        """Figure 1 on a full synthetic scene: delineate on the embanked DEM,
        breach at ground-truth crossings, connectivity improves."""
        scene = watershed(192)
        threshold = scene.config.stream_threshold

        def analyze(dem):
            conditioned = priority_flood_fill(dem, epsilon=1e-4)
            net = delineate_streams(conditioned, threshold=threshold)
            return assess_connectivity(dem, net)

        before = analyze(scene.dem)
        breached = breach_dem(scene.dem, [c.center for c in scene.crossings],
                              radius=4)
        after = analyze(breached)
        # Breaching removes digital-dam depressions behind embankments.
        assert after.depression_cells < before.depression_cells
        assert after.mean_path_length >= 0.9 * before.mean_path_length

    def test_pipeline_smoke(self):
        """The one-call pipeline produces every artifact on a micro budget."""
        from repro.pipeline import PipelineConfig, run_pipeline

        result = run_pipeline(PipelineConfig(
            num_scenes=1, chips_per_crossing=1, nas_trials=1, train_epochs=1,
            accuracy_threshold=-1.0, profile_iterations=5,
        ))
        assert result.winner_config is not None
        assert result.winner_model is not None
        assert result.schedule_result is not None
        assert result.schedule_result.speedup > 1.0
        assert result.profile is not None
        assert result.profile.peak_memory_bytes > 0
