"""One copy of the FC per process: the engine's Linear packs are the
module's own float32 arrays, frozen read-only, and everything else it
packs is a copy that leaves the module writable."""

import hashlib
import pickle

import numpy as np
import pytest

from repro.arch import TABLE1_MODELS, ConvSpec, PoolSpec, SPPNetConfig
from repro.detect import SPPNetDetector
from repro.engine import compile as engine_compile, compiled_for
from repro.scanpar import serialized_model
from repro.tensor import Linear, Tensor, losses
from repro.tensor.optim import SGD

SMALL = SPPNetConfig(convs=(ConvSpec(8, 3, 1), ConvSpec(16, 3, 1)),
                     pools=(PoolSpec(2, 2), PoolSpec(2, 2)),
                     spp_levels=(2, 1), fc_sizes=(32,), in_channels=4)


def chips(n, size=32, seed=0):
    return np.random.default_rng(seed).random((n, 4, size, size), dtype=np.float32)


def linear_packs(model, compiled):
    """``(module array, its pack)`` for every Linear weight and bias, in
    module order (trace order matches it)."""
    params = [a for m in model.modules() if isinstance(m, Linear)
              for a in (m.weight.data, m.bias.data)]
    packs = [p[key] for p in compiled._packed.values()
             for key in ("pack", "bias") if key in p]
    assert len(params) == len(packs)
    return list(zip(params, packs))


@pytest.mark.parametrize("name", list(TABLE1_MODELS))
def test_table1_linear_packs_are_the_module_arrays(name):
    model = SPPNetDetector(TABLE1_MODELS[name], seed=0).eval()
    for param, pack in linear_packs(model, compiled_for(model)):
        assert np.shares_memory(param, pack)
        assert not param.flags.writeable


@pytest.mark.parametrize("name", list(TABLE1_MODELS))
def test_an_unpickled_model_shares_its_linear_arrays(name):
    """A pool worker's model arrives pickled: each large array sits on
    a ``bytes`` of its own size, and the engine shares it all the same."""
    data, _ = serialized_model(SPPNetDetector(TABLE1_MODELS[name],
                                              seed=0).eval())
    model = pickle.loads(data)
    packs = linear_packs(model, compiled_for(model))
    assert type(packs[0][0].base) is bytes      # the first FC weight
    for param, pack in packs:
        assert np.shares_memory(param, pack)
        assert not param.flags.writeable


def test_a_cast_shares_nothing_and_leaves_the_module_writable():
    model = SPPNetDetector(SMALL, seed=1)
    compiled = engine_compile(model, (4, 32, 32), dtype=np.float64)
    for param, pack in linear_packs(model, compiled):
        assert pack.dtype == np.float64
        assert not np.shares_memory(param, pack)
        assert param.flags.writeable


def test_a_view_backed_parameter_is_copied():
    model = SPPNetDetector(SMALL, seed=1)
    fc = next(m for m in model.modules() if isinstance(m, Linear))
    backing = np.zeros((2,) + fc.weight.data.shape, dtype=np.float32)
    backing[0] = fc.weight.data
    fc.weight.data = backing[0]
    compiled = engine_compile(model, (4, 32, 32))
    param, pack = linear_packs(model, compiled)[0]
    assert param is fc.weight.data and param.base is backing
    assert not np.shares_memory(param, pack)
    assert param.flags.writeable
    np.testing.assert_array_equal(pack, param)


def params_sha1(model) -> str:
    digest = hashlib.sha1()
    for name, param in model.named_parameters():
        digest.update(name.encode())
        digest.update(param.data.tobytes())
    return digest.hexdigest()


def test_training_a_compiled_model_copies_on_write():
    """``SGD.step`` copies a frozen parameter before its update: the
    engine keeps its snapshot bit for bit, and the trained parameters
    equal an uncompiled twin's given the same step."""
    images = chips(4)
    labels = np.array([1, 0, 1, 0])
    boxes = np.full((4, 4), 0.5, dtype=np.float32)
    compiled_model = SPPNetDetector(SMALL, seed=3)
    twin = SPPNetDetector(SMALL, seed=3)
    untrained = params_sha1(twin)
    assert params_sha1(compiled_model) == untrained
    compiled = compiled_for(compiled_model)
    before = [out.copy() for out in compiled(images)]
    for model in (compiled_model, twin):
        optimizer = SGD(model.parameters())
        logits, box_pred = model(Tensor(images))
        losses.detection_loss(logits, box_pred, labels, boxes).backward()
        optimizer.step()
    assert params_sha1(compiled_model) == params_sha1(twin) != untrained
    assert all(p.data.flags.writeable for p in compiled_model.parameters())
    for out, ref in zip(compiled(images), before):
        assert out.tobytes() == ref.tobytes()
    assert compiled_for(compiled_model) is compiled
