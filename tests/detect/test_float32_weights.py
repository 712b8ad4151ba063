"""The detector holds one float32 copy of its weights, with the values a
float64 build rounds to, and eager inference runs in that dtype."""

import pickle

import numpy as np
import pytest

from repro.arch import TABLE1_MODELS, ConvSpec, PoolSpec, SPPNetConfig
from repro.detect import SPPNetDetector, predict
from repro.engine import compiled_for
from repro.nas import config_from_sample
from repro.scanpar.pool import serialized_model
from repro.tensor import BatchNorm2d, Tensor, load_checkpoint, no_grad, save_checkpoint

SMALL = SPPNetConfig(convs=(ConvSpec(8, 3, 1), ConvSpec(16, 3, 1)),
                     pools=(PoolSpec(2, 2), PoolSpec(2, 2)),
                     spp_levels=(2, 1), fc_sizes=(32,), in_channels=4)


def chips(n, size=32, seed=0):
    return np.random.default_rng(seed).random((n, 4, size, size), dtype=np.float32)


def one_shot_draws(model, seed):
    """``(name, parameter, float64 value)`` in build order: each weight is
    the seed's one-shot ``rng.uniform`` draw, each bias or BN shift
    zeros, each BN scale ones -- what a float64 build holds."""
    rng = np.random.default_rng(seed)
    bn = {id(m.weight) for m in model.modules() if isinstance(m, BatchNorm2d)}
    for key, p in model.named_parameters():
        if id(p) in bn:
            yield key, p, np.ones(p.shape)
        elif key.endswith("bias"):
            yield key, p, np.zeros(p.shape)
        else:
            fan_in = int(np.prod(p.shape[1:]))
            bound = np.sqrt(2.0) * np.sqrt(3.0 / fan_in)
            yield key, p, rng.uniform(-bound, bound, size=p.shape)


def float64_twin(config, seed):
    """The detector as a float64 build holds it: float64 parameters with
    the one-shot draws' exact values."""
    model = SPPNetDetector(config, seed=seed)
    for _, p, value in one_shot_draws(model, seed):
        p.data = value
    return model


@pytest.mark.parametrize("name", list(TABLE1_MODELS))
def test_table1_parameters_are_the_float32_cast_of_the_one_shot_draws(name):
    """Layer by layer in build order, each weight is the seed's one-shot
    float64 ``rng.uniform`` draw cast to float32; biases are zeros."""
    model = SPPNetDetector(TABLE1_MODELS[name], seed=0)
    for key, p, draw in one_shot_draws(model, seed=0):
        assert p.dtype == np.float32, key
        for i in range(0, len(draw), 256):  # cast in slices: SPP-Net #2's FC is 240 MB
            assert np.array_equal(p.data[i:i + 256], draw[i:i + 256].astype(np.float32)), key
        del draw


def test_a_float64_state_dict_loads_as_its_cast(tmp_path):
    wide = float64_twin(SMALL, seed=4)
    model = SPPNetDetector(SMALL, seed=9)
    model.load_state_dict(wide.state_dict())
    for (key, p), (_, q) in zip(model.named_parameters(), wide.named_parameters()):
        assert p.dtype == np.float32 and q.dtype == np.float64
        assert p.data.tobytes() == q.data.astype(np.float32).tobytes(), key
    path = save_checkpoint(wide, tmp_path / "wide.npz")
    fresh = SPPNetDetector(SMALL, seed=9)
    load_checkpoint(fresh, path)
    for (_, p), (_, q) in zip(fresh.named_parameters(), model.named_parameters()):
        assert p.data.dtype == np.float32 and p.data.tobytes() == q.data.tobytes()


class TestEagerDtype:
    def test_eager_runs_in_the_weights_dtype(self):
        model = SPPNetDetector(SMALL, seed=1).eval()
        conf, boxes = predict(model, chips(3))
        assert conf.dtype == boxes.dtype == np.float32
        x = Tensor(chips(1), dtype=np.float32)
        with no_grad():
            for layer in model.trunk:
                x = layer(x)
                assert x.dtype == np.float32, layer

    def test_a_float64_model_runs_in_float64(self):
        model = float64_twin(SMALL, seed=1).eval()
        conf, boxes = predict(model, chips(3))
        assert conf.dtype == boxes.dtype == np.float64

    def test_scalars_do_not_promote(self):
        x = Tensor(np.ones(3, np.float32), dtype=np.float32)
        for y in (x + 1.0, 1.0 - x, x * 2.0, 2.0 / x, x / 2.0, x - 1.0,
                  (x + 1e-5) ** 0.5, x.mean(), x.sigmoid(), x.detach()):
            assert y.dtype == np.float32
        assert (x + Tensor(np.ones(3))).dtype == np.float64

    def test_eager_matches_the_engine(self):
        model = SPPNetDetector(SMALL, seed=2).eval()
        eager = predict(model, chips(4))
        engine = predict(model, chips(4), backend="engine")
        for a, b in zip(eager, engine):
            np.testing.assert_allclose(a, b, atol=1e-5, rtol=1e-4)


def test_batchnorm_sample_moves_by_one_ulp_of_its_folded_convs():
    """Pinned: folding BN into float32 conv weights rounds twice
    (``round32(round32(w) * s)``) where the float64 build rounded once,
    so a quarter of the folded conv entries move by one ulp and the
    engine's outputs by under 1e-6.  FC layers, which fold nothing, are
    bit-identical."""
    config = config_from_sample({"first_kernel": 3, "spp_first_level": 4,
                                 "fc_width": 256, "batchnorm": True})
    narrow = compiled_for(SPPNetDetector(config, seed=0).eval())
    wide = compiled_for(float64_twin(config, seed=0).eval())
    moved = {}
    for step, packs in narrow._packed.items():
        for key, a in packs.items():
            b = wide._packed[step][key]
            assert a.dtype == b.dtype == np.float32
            ulps = np.abs(a.view(np.int32).astype(np.int64) - b.view(np.int32))
            assert ulps.max() <= 1, (step, key)
            moved[f"{step}.{key}"] = int(ulps.sum())
    assert moved == {"conv1.im2col": 584, "conv2.im2col": 18233,
                     "conv3.im2col": 73785, "fc1.pack": 0, "fc1.bias": 0,
                     "fc2.pack": 0, "fc2.bias": 0, "fc3.pack": 0, "fc3.bias": 0}
    images = np.random.default_rng(0).random((5, 4, 100, 100), dtype=np.float32)
    for a, b in zip(narrow.predict(images), wide.predict(images)):
        assert a.tobytes() != b.tobytes()
        np.testing.assert_allclose(a, b, atol=1e-6, rtol=0)


def test_pool_payload_is_one_float32_copy():
    """The scan pool ships the pickled detector to every worker."""
    model = SPPNetDetector(TABLE1_MODELS["SPP-Net #3"], seed=0).eval()
    data, _ = serialized_model(model)
    assert len(data) <= 70 * 2**20
    worker_model = pickle.loads(data)  # what a pool worker does with it
    assert {p.dtype for p in worker_model.parameters()} == {np.dtype(np.float32)}
