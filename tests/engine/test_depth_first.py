"""Depth-first execution: the trunk/head split rule, bitwise agreement
with the same steps bound at the full batch (how the engine ran before
the split), and a property sweep over the model space."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch import TABLE1_MODELS, ConvSpec, PoolSpec, SPPNetConfig
from repro.detect.predict import predict
from repro.detect.sppnet import SPPNetDetector
from repro.engine import CompiledModel, Step, compile as engine_compile
from repro.engine.compiled import HEAD_ROWS, _Program, _head_rows
from repro.engine.fusion import split_trunk_head
from repro.nas.space import config_from_sample
from repro.tensor import Linear, ReLU, Sequential, Tensor, no_grad

BATCHES = (1, 2, 3, 5, 8, 20)


def step(kind, name, inputs=(), shape=(8,)):
    return Step(kind, name, tuple(inputs), shape, {}, (name,), 0)


def names(steps):
    return [s.name for s in steps]


class TestSplitRule:
    def test_detector_splits_at_the_first_linear(self):
        model = SPPNetDetector(TABLE1_MODELS["SPP-Net #3"], seed=0).eval()
        compiled = engine_compile(model)
        trunk, boundary, head = split_trunk_head(compiled.steps,
                                                 compiled.outputs)
        assert boundary == ("spp_concat1",)
        assert {s.kind for s in trunk} == {
            "input", "conv_pool", "adaptive_pool_flatten", "concat"}
        assert [s.kind for s in head][:2] == ["input", "linear"]
        assert head[0].name == "spp_concat1" and head[0].inputs == ()
        assert set(compiled.outputs) <= set(names(head))
        assert sorted(names(trunk) + names(head)[1:]) == sorted(
            names(compiled.steps))

    def test_consumers_of_a_linear_are_head_transitively(self):
        steps = [step("input", "input"), step("relu", "a", ["input"]),
                 step("linear", "fc", ["a"]), step("relu", "b", ["fc"]),
                 step("concat", "c", ["a", "b"]), step("relu", "d", ["a"])]
        trunk, boundary, head = split_trunk_head(steps, ("c", "d"))
        assert names(trunk) == ["input", "a", "d"]
        # a feeds the head, d is a program output computed by the trunk
        assert boundary == ("a", "d")
        assert names(head) == ["a", "d", "fc", "b", "c"]
        assert [s.kind for s in head[:2]] == ["input", "input"]

    def test_model_without_linear_is_all_trunk(self):
        steps = [step("input", "input"), step("relu", "a", ["input"]),
                 step("relu", "b", ["a"])]
        trunk, boundary, head = split_trunk_head(steps, ("b",))
        assert names(trunk) == names(steps) and boundary == ("b",)
        assert [(s.kind, s.name) for s in head] == [("input", "b")]

    def test_all_linear_model_is_all_head(self):
        steps = [step("input", "input"), step("linear", "fc1", ["input"]),
                 step("linear", "fc2", ["fc1"])]
        assert split_trunk_head(steps, ("fc2",)) == ([], (), steps)


def full_batch(compiled: CompiledModel, x: np.ndarray) -> list[np.ndarray]:
    """Every step bound at the full batch in one arena: one im2col GEMM
    per conv over all ``n`` samples, at the rows the engine binds a head
    for ``n`` (whole ``HEAD_ROWS`` blocks, the pad rows zeroed)."""
    prog = _Program(compiled.steps, compiled.outputs, _head_rows(len(x)),
                    compiled.dtype, compiled._packed)
    prog.feed(x)
    prog.zero_rows(len(x))
    prog.execute()
    return prog.extract(len(x))


@pytest.mark.parametrize("name", sorted(TABLE1_MODELS))
def test_float32_outputs_bitwise_equal_full_batch_binding(name):
    model = SPPNetDetector(TABLE1_MODELS[name], seed=0).eval()
    compiled = engine_compile(model)
    x = np.random.default_rng(3).standard_normal(
        (max(BATCHES),) + compiled.input_shape).astype(np.float32)
    for n in BATCHES:
        for ours, ref in zip(compiled(x[:n]), full_batch(compiled, x[:n])):
            assert ours.tobytes() == ref.tobytes(), (name, n)
    assert len(compiled._trunks) == 1


# -- property sweep ----------------------------------------------------------

def sample_config(first_kernel: int, spp_first_level: int,
                  fc_width: int) -> SPPNetConfig:
    """A search-space sample, its trunk shrunk to two narrow convs so
    the pyramid still fits a 32 px input."""
    config = config_from_sample({"first_kernel": first_kernel,
                                 "spp_first_level": spp_first_level,
                                 "fc_width": fc_width})
    return replace(
        config, convs=(ConvSpec(8, first_kernel, 1), ConvSpec(16, 3, 1)),
        pools=(PoolSpec(2, 2), PoolSpec(2, 2)))


def bitwise(a, b) -> bool:
    """Byte equality of two engine results (an array or a tuple)."""
    if isinstance(a, np.ndarray):
        a, b = (a,), (b,)
    return all(p.tobytes() == q.tobytes() for p, q in zip(a, b))


@settings(derandomize=True, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(first_kernel=st.sampled_from((1, 3, 5, 7, 9)),
       spp_first_level=st.integers(1, 5),
       fc_width=st.sampled_from((8, 16, 24)),
       size=st.integers(32, 48),
       batch=st.sampled_from(BATCHES),
       seed=st.integers(0, 2**16))
def test_model_space_property(first_kernel, spp_first_level, fc_width, size,
                              batch, seed):
    config = sample_config(first_kernel, spp_first_level, fc_width)
    model = SPPNetDetector(config, seed=seed).eval()
    shape = (4, size, size)
    x = np.random.default_rng(seed).standard_normal(
        (batch,) + shape).astype(np.float32)

    # head-less: every row is exactly what the tile gives on its own
    features = Sequential(model.trunk, model.spp)
    headless = engine_compile(features, shape)
    rows = headless(x)
    assert rows.shape == (batch, config.spp_features)
    for i in range(batch):
        assert bitwise(rows[i:i + 1], headless(x[i:i + 1]))

    compiled = engine_compile(model, shape)
    # the trunk bound at the read extent gives the boundary bytes of the
    # same steps bound at the whole sample
    steps, boundary, _ = compiled._split_for(shape)
    whole = _Program(steps, boundary, 1, compiled.dtype, compiled._packed)
    read = compiled._trunk_for(shape)
    for i in range(batch):
        for prog in (whole, read):
            prog.feed(x[i:i + 1])
            prog.execute()
        assert all(whole.views[name].tobytes() == read.views[name].tobytes()
                   for name in boundary), i

    out = compiled(x)
    # two fresh compiles run the same kernels over the same bytes
    assert bitwise(out, engine_compile(model, shape)(x))
    # the head's GEMM sees other rows at batch n: low-order bits only
    for i in range(batch):
        for whole, alone in zip(out, compiled(x[i:i + 1])):
            np.testing.assert_allclose(whole[i:i + 1], alone, atol=1e-5,
                                       rtol=0)
    with no_grad():
        logits, boxes = model(Tensor(x))
    np.testing.assert_allclose(out[0], logits.data, atol=1e-5, rtol=1e-4)
    np.testing.assert_allclose(out[1], boxes.data, atol=1e-5, rtol=1e-4)


class TestStepCosts:
    def test_costs_cover_every_compute_step(self):
        model = SPPNetDetector(sample_config(3, 2, 32), seed=0).eval()
        compiled = CompiledModel(model, (4, 32, 32))
        trunk, head = compiled._programs_for(2, (4, 32, 32))
        x = np.random.default_rng(0).standard_normal(
            (1, 4, 32, 32)).astype(np.float32)
        costs = trunk.step_costs(x, repeats=2)
        # costs are the one-sample trunk's; the head's steps are not in
        linear = {s.name for s in compiled.steps if s.kind == "linear"}
        assert linear and not linear & set(costs)
        assert set(costs) | set(head.views) == {
            s.name for s in compiled.steps if s.kind != "input"}
        assert all(c > 0 for c in costs.values())


def test_all_linear_module_runs_as_one_head():
    rng = np.random.default_rng(0)
    mlp = Sequential(Linear(12, 16, rng=rng), ReLU(), Linear(16, 3, rng=rng))
    compiled = engine_compile(mlp, (12,))
    x = rng.standard_normal((5, 12)).astype(np.float32)
    with no_grad():
        expected = mlp(Tensor(x)).data
    np.testing.assert_allclose(compiled(x), expected, atol=1e-5, rtol=1e-4)
    # 5 rows run in a head bound at two whole 4-row blocks
    assert not compiled._trunks and set(compiled._heads) == {(8, 12)}
    assert compiled.schedule_for(5) is None
    assert compiled.planned_peak_bytes(5) == compiled.memory_plan(5).peak_bytes


def test_ragged_last_batch_through_predict():
    model = SPPNetDetector(sample_config(3, 3, 16), seed=4).eval()
    compiled = engine_compile(model, (4, 32, 32))
    x = np.random.default_rng(4).standard_normal(
        (7, 4, 32, 32)).astype(np.float32)
    conf, boxes = compiled.predict(x, batch_size=3)
    # the batches of 3 and the ragged 1 both run in one 4-row head,
    # bound at the read extent
    h, w, _ = compiled.read_extent((4, 32, 32))
    assert set(compiled._heads) == {(HEAD_ROWS, 4, h, w)}
    assert len(compiled._trunks) == 1
    ref_conf, ref_boxes = predict(model, x, batch_size=3)
    np.testing.assert_allclose(conf, ref_conf, atol=1e-5, rtol=1e-4)
    np.testing.assert_allclose(boxes, ref_boxes, atol=1e-5, rtol=1e-4)


@pytest.mark.parametrize("batch_size", [0, -1])
def test_batch_size_below_one_is_rejected(batch_size):
    model = SPPNetDetector(sample_config(3, 3, 16), seed=4).eval()
    compiled = engine_compile(model, (4, 32, 32))
    x = np.zeros((3, 4, 32, 32), dtype=np.float32)
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        compiled.predict(x, batch_size=batch_size)
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        list(compiled.predict_windows(x[0], [(0, 0)], 32,
                                      batch_size=batch_size))


# -- lazy samples: the open form ---------------------------------------------

def closed_loop(compiled: CompiledModel, x: np.ndarray) -> list[np.ndarray]:
    """The depth-first pass as it ran when the batch was known up
    front: each sample's boundary rows written straight into the head
    bound for ``len(x)``, its pad rows zeroed, and the real rows sliced
    out.  Kept here as the reference for the lazy loop."""
    trunk, head = compiled._programs_for(len(x), tuple(x.shape[1:]))
    for i in range(len(x)):
        trunk.feed(x[i:i + 1])
        trunk.execute()
        for name in trunk.outputs:
            np.copyto(head.views[name][i:i + 1], trunk.views[name])
    head.zero_rows(len(x))
    head.execute()
    return head.extract(len(x))


@pytest.mark.parametrize("name", sorted(TABLE1_MODELS))
def test_open_form_is_bitwise_predict_over_the_stacked_chips(name):
    model = SPPNetDetector(TABLE1_MODELS[name], seed=0).eval()
    compiled = engine_compile(model)
    x = np.random.default_rng(5).standard_normal(
        (20,) + compiled.input_shape).astype(np.float32)
    for n in BATCHES:
        # __call__ / predict: the lazy loop returns the closed loop's bytes
        assert bitwise(compiled(x[:n]), tuple(closed_loop(compiled, x[:n])))
    for n in (1, 2, 3, 5, 8, 16):
        stacked = compiled.predict(x[:n], batch_size=n)
        # an iterator that ends before the limit, and one cut by it
        assert bitwise(compiled.predict_stream(iter(x[:n]), 16), stacked)
        assert bitwise(compiled.predict_stream(iter(x), n), stacked)
    assert len(compiled._trunks) == 1


def test_open_form_pulls_lazily_and_leaves_the_rest():
    model = SPPNetDetector(sample_config(3, 3, 16), seed=4).eval()
    compiled = engine_compile(model, (4, 32, 32))
    x = np.random.default_rng(4).standard_normal(
        (7, 4, 32, 32)).astype(np.float32)
    pulls = []

    def chips():
        for i, chip in enumerate(x):
            # pulled between trunk runs, never ahead: every earlier
            # chip's trunk has written its row by now
            pulls.append((i, compiled._lock.locked()))
            yield chip

    source = chips()
    conf, boxes = compiled.predict_stream(source, 3)
    assert pulls == [(0, True), (1, True), (2, True)]
    assert conf.shape == (3,) and boxes.shape == (3, 4)
    assert bitwise((conf, boxes), compiled.predict(x[:3], batch_size=3))
    # the iterator still holds chips 3..6
    rest = compiled.predict_stream(source, 16)
    assert bitwise(rest, compiled.predict(x[3:], batch_size=4))
    assert [i for i, _ in pulls] == list(range(7))

    with pytest.raises(ValueError, match="batch must be >= 1"):
        compiled.predict_stream(iter(()), 4)
    mixed = [x[0], x[1][:, :30, :30]]
    with pytest.raises(ValueError, match="share a sample shape"):
        compiled.predict_stream(iter(mixed), 4)


def test_open_form_on_an_all_head_module():
    rng = np.random.default_rng(0)
    mlp = Sequential(Linear(12, 16, rng=rng), ReLU(), Linear(16, 3, rng=rng))
    compiled = engine_compile(mlp, (12,))
    x = rng.standard_normal((5, 12)).astype(np.float32)
    with compiled._lock:
        (rows,) = compiled._forward(iter(x), 8, _Program.execute)
    assert bitwise(rows, compiled(x))
