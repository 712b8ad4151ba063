"""kaiming_uniform: a blocked fill that is the one-shot draw, bit for bit."""

import numpy as np
import pytest

from repro.tensor import Conv2d, Linear, init, set_default_dtype


def one_shot(shape, seed):
    rng = np.random.default_rng(seed)
    fan_in, _ = init.fan_in_out(shape)
    bound = np.sqrt(2.0) * np.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape), rng


SHAPES = [(7, 3, 5, 5), (16, 40), (1, 9), (300, 5000)]


@pytest.mark.parametrize("block", [1, 7, 100, init._DRAW_BLOCK])
@pytest.mark.parametrize("shape", SHAPES)
def test_blocked_fill_is_the_one_shot_draw_at_float64(monkeypatch, shape, block):
    monkeypatch.setattr(init, "_DRAW_BLOCK", block)
    want, want_rng = one_shot(shape, seed=3)
    rng = np.random.default_rng(3)
    got = init.kaiming_uniform(shape, rng)
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    # the generator ends where the one-shot draw left it
    assert rng.bit_generator.state == want_rng.bit_generator.state
    assert rng.random() == want_rng.random()


@pytest.mark.parametrize("shape", SHAPES)
def test_float32_fill_is_the_cast_of_the_float64_draw(shape):
    want, want_rng = one_shot(shape, seed=5)
    rng = np.random.default_rng(5)
    got = init.kaiming_uniform(shape, rng, dtype=np.float32)
    assert got.dtype == np.float32
    assert got.tobytes() == want.astype(np.float32).tobytes()
    assert rng.bit_generator.state == want_rng.bit_generator.state


def test_layers_take_a_factory_dtype_and_default_to_the_default_dtype():
    rng = np.random.default_rng(0)
    conv = Conv2d(3, 4, 3, rng=rng, dtype=np.float32)
    fc = Linear(5, 2, rng=rng, dtype=np.float32)
    assert {p.dtype for p in (conv.weight, conv.bias, fc.weight, fc.bias)} \
        == {np.dtype(np.float32)}
    assert Linear(5, 2, rng=rng).weight.dtype == np.float64
    previous = set_default_dtype(np.float32)
    try:
        assert Linear(5, 2, rng=rng).weight.dtype == np.float32
    finally:
        set_default_dtype(previous)
