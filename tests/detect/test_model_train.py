"""SPP-Net detector model and the training loop (tiny configs for speed)."""

import numpy as np
import pytest

from repro.arch import ConvSpec, PoolSpec, SPPNetConfig
from repro.detect import (
    SPPNetDetector,
    TrainConfig,
    evaluate_detector,
    predict,
    train_detector,
)
from repro.geo import ChipDataset
from repro.tensor import Tensor

TINY = SPPNetConfig(
    convs=(ConvSpec(8, 3, 1), ConvSpec(16, 3, 1)),
    pools=(PoolSpec(2, 2), PoolSpec(2, 2)),
    spp_levels=(2, 1),
    fc_sizes=(32,),
    in_channels=4,
    name="tiny",
)


def synthetic_dataset(n=48, size=24, seed=0):
    """Crossing = bright square blob; trivial but real learning signal."""
    rng = np.random.default_rng(seed)
    images = rng.random((n, 4, size, size)).astype(np.float32) * 0.2
    labels = np.zeros(n, dtype=np.int64)
    boxes = np.zeros((n, 4), dtype=np.float32)
    for i in range(n // 2):
        labels[i] = 1
        r, c = rng.integers(6, size - 6, 2)
        images[i, :, r - 3:r + 3, c - 3:c + 3] += 0.7
        boxes[i] = [(c) / size, (r) / size, 6 / size, 6 / size]
    order = rng.permutation(n)
    return ChipDataset(images[order], labels[order], boxes[order], size)


@pytest.fixture(scope="module")
def data():
    ds = synthetic_dataset()
    return ds.split(0.75, seed=0)


class TestModel:
    def test_forward_shapes(self):
        model = SPPNetDetector(TINY, seed=0)
        x = Tensor(np.random.default_rng(0).random((3, 4, 24, 24)))
        logits, boxes = model(x)
        assert logits.shape == (3, 2)
        assert boxes.shape == (3, 4)
        assert (boxes.data >= 0).all() and (boxes.data <= 1).all()

    def test_variable_input_sizes(self):
        """SPP property: same weights, any input size >= minimum."""
        model = SPPNetDetector(TINY, seed=0)
        for size in (16, 24, 37):
            x = Tensor(np.random.default_rng(1).random((1, 4, size, size)))
            logits, _ = model(x)
            assert logits.shape == (1, 2)

    def test_min_input_size_consistent(self):
        min_size = TINY.min_input_size()
        model = SPPNetDetector(TINY, seed=0)
        x = Tensor(np.zeros((1, 4, min_size, min_size)))
        model(x)  # must not raise
        with pytest.raises(ValueError):
            model(Tensor(np.zeros((1, 4, min_size - 4, min_size - 4))))

    def test_input_validation(self):
        model = SPPNetDetector(TINY, seed=0)
        with pytest.raises(ValueError):
            model(Tensor(np.zeros((4, 24, 24))))
        with pytest.raises(ValueError):
            model(Tensor(np.zeros((1, 3, 24, 24))))

    def test_seed_reproducible(self):
        a = SPPNetDetector(TINY, seed=5)
        b = SPPNetDetector(TINY, seed=5)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert np.allclose(pa.data, pb.data)

    def test_predict_scores_probabilities(self):
        model = SPPNetDetector(TINY, seed=0)
        scores = model.predict_scores(Tensor(np.random.random((5, 4, 24, 24))))
        assert scores.shape == (5,)
        assert (scores >= 0).all() and (scores <= 1).all()


class TestTraining:
    def test_loss_decreases_and_ap_meaningful(self, data):
        train, test = data
        result = train_detector(TINY, train, test,
                                TrainConfig(epochs=6, batch_size=8, seed=0))
        assert 0 < result.history[-1].mean_loss < result.history[0].mean_loss
        assert result.test_scores is not None
        assert result.test_scores.accuracy > 0.7

    def test_history_records_epochs(self, data):
        train, test = data
        result = train_detector(TINY, train, test,
                                TrainConfig(epochs=2, batch_size=8))
        assert [h.epoch for h in result.history] == [1, 2]
        assert all(h.duration_s > 0 for h in result.history)

    def test_eval_every(self, data):
        train, test = data
        result = train_detector(TINY, train, test,
                                TrainConfig(epochs=2, batch_size=8, eval_every=1))
        assert all(h.test_ap is not None for h in result.history)

    def test_dtype_restored_after_training(self, data):
        from repro.tensor import default_dtype

        before = default_dtype()
        train, test = data
        train_detector(TINY, train, None, TrainConfig(epochs=1, batch_size=8))
        assert default_dtype() == before

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)


class TestPredictionAPI:
    def test_predict_batches_consistent(self, data):
        train, _ = data
        model = SPPNetDetector(TINY, seed=0)
        c1, b1 = predict(model, train.images, batch_size=4)
        c2, b2 = predict(model, train.images, batch_size=16)
        assert np.allclose(c1, c2, atol=1e-6)
        assert np.allclose(b1, b2, atol=1e-6)

    def test_predict_shape_validation(self):
        model = SPPNetDetector(TINY, seed=0)
        with pytest.raises(ValueError):
            predict(model, np.zeros((4, 24, 24)))

    def test_evaluate_returns_scores(self, data):
        _, test = data
        model = SPPNetDetector(TINY, seed=0)
        scores = evaluate_detector(model, test)
        assert 0.0 <= scores.ap <= 1.0
        assert scores.num_ground_truth == int((test.labels == 1).sum())
