"""Pixels nobody reads: the read-extent rule (``fusion.read_extent``),
its decline reasons, its tightness, and bit equality of the trunk bound
at the extent with the trunk bound at the whole chip (docs/engine.md,
"Pixels nobody reads")."""

import numpy as np
import pytest

from repro.arch import TABLE1_MODELS
from repro.detect import SPPNetDetector
from repro.engine import Step, compile as engine_compile, compiled_for, fusion
from repro.engine.compiled import _Program
from repro.tensor import Conv2d, MaxPool2d, ReLU, Sequential

#: the read extent of each Table-1 model on the paper's 100 px chip
EXTENTS = {"Original SPP-Net": 94, "SPP-Net #1": 96, "SPP-Net #2": 94,
           "SPP-Net #3": 94}


def chips(n, seed=0, shape=(4, 100, 100)):
    return np.random.default_rng(seed).standard_normal(
        (n,) + shape).astype(np.float32)


def same(a, b) -> bool:
    return all(p.tobytes() == q.tobytes() for p, q in zip(a, b))


def conv_stack():
    """A trunk with no head and no SPP: its output is the boundary."""
    rng = np.random.default_rng(0)
    return Sequential(Conv2d(4, 8, 3, rng=rng), ReLU(), MaxPool2d(2, 2),
                      Conv2d(8, 8, 3, rng=rng), ReLU(), MaxPool2d(2, 2))


class TestRule:
    @pytest.mark.parametrize("name", sorted(TABLE1_MODELS))
    def test_table1_extents_at_100_px(self, table1, name):
        compiled = compiled_for(table1[name])
        side = EXTENTS[name]
        assert compiled.read_extent() == (side, side, None)
        trunk, boundary, _ = compiled._split_for((4, 100, 100))
        assert fusion.read_extent(trunk, boundary) == (side, side, None)
        # the extent of the extent is itself
        assert compiled.read_extent((4, side, side)) == (side, side, None)

    def test_a_padded_conv_reads_the_whole_chip(self):
        model = SPPNetDetector(TABLE1_MODELS["SPP-Net #3"], seed=0).eval()
        model.trunk.layers[0].padding = 1
        compiled = engine_compile(model, (4, 100, 100))
        assert compiled.read_extent() == (100, 100, fusion.PADDED_STEP)
        assert set(compiled._trunks) == set()
        compiled.predict(chips(1), batch_size=1)
        assert set(compiled._trunks) == {(4, 100, 100)}

    def test_shapes_the_kernels_cannot_produce_decline(self):
        """A conv declared 11 px wide over a 12 px input with a 3 px
        kernel (the kernel gives 10): binding it anywhere else would not
        reproduce the declared shape, so the rule keeps the whole input."""
        attrs = {"kernel": 3, "stride": 1, "padding": 0, "in_channels": 4,
                 "out_channels": 8, "bias": True, "weights": "c",
                 "relu": True}
        steps = [Step("input", "input", (), (4, 12, 12), {}, ("input",), 0),
                 Step("conv", "c", ("input",), (8, 11, 11), attrs, ("c",), 0)]
        assert fusion.read_extent(steps, ("c",)) == (
            12, 12, fusion.EXTENT_CHANGES_SHAPE)

    def test_a_tensor_read_twice_takes_the_larger_demand(self):
        """conv ``c`` (18 px) feeds a 2x2/s2 pool that reads all 18 rows
        and a 3 px / stride-4 conv whose 4 outputs read 15: with both
        consumers the input is read to 20 px, with the conv alone 17."""
        def conv(name, src, shape, k, stride):
            attrs = {"kernel": k, "stride": stride, "padding": 0,
                     "in_channels": 4, "out_channels": shape[0],
                     "bias": True, "weights": name, "relu": False}
            return Step("conv", name, (src,), shape, attrs, (name,), 0)
        steps = [Step("input", "input", (), (4, 20, 20), {}, ("input",), 0),
                 conv("c", "input", (8, 18, 18), 3, 1),
                 conv("q", "c", (8, 4, 4), 3, 4),
                 Step("maxpool", "p", ("c",), (8, 9, 9),
                      {"kernel": 2, "stride": 2, "relu": False}, ("p",), 0)]
        assert fusion.read_extent(steps, ("q", "p")) == (20, 20, None)
        assert fusion.read_extent(steps[:3], ("q",)) == (17, 17, None)

    def test_rows_and_columns_are_separate(self, table1):
        compiled = compiled_for(table1["SPP-Net #3"])
        assert compiled.read_extent((4, 100, 120)) == (94, 118, None)

    def test_a_spatial_boundary_is_read_whole(self):
        compiled = engine_compile(conv_stack(), (4, 32, 32))
        # 32 -> 30 -> 15 -> 13 -> 6: the last pool reads 12 rows of 13,
        # which read 14 pooled rows of 15, i.e. 28 conv rows, 30 pixels
        assert compiled.read_extent() == (30, 30, None)

    def test_a_flat_shape_has_no_extent(self, table1):
        with pytest.raises(ValueError, match=r"\(C, H, W\)"):
            compiled_for(table1["SPP-Net #3"]).read_extent((7680,))


class TestTight:
    """One pixel less than the extent, on either axis, changes a shape
    the outputs read: the pooled map the SPP reads whole (the boundary
    itself is the SPP's flat vector, whose length does not depend on
    the map's size), or a spatial boundary."""

    @pytest.mark.parametrize("name", sorted(TABLE1_MODELS))
    def test_one_pixel_less_changes_the_map_the_spp_reads(self, table1,
                                                          name):
        compiled = compiled_for(table1[name])
        side = EXTENTS[name]

        def spp_input(shape):
            trunk, _, _ = compiled._split_for(shape)
            shapes = {s.name: s.out_shape for s in trunk}
            (pooled,) = {s.inputs[0] for s in trunk
                         if s.kind == "adaptive_pool_flatten"}
            return shapes[pooled]

        assert spp_input((4, side, side)) == spp_input((4, 100, 100))
        for shape in [(4, side - 1, side), (4, side, side - 1)]:
            assert spp_input(shape) != spp_input((4, 100, 100)), shape

    def test_one_pixel_less_changes_a_spatial_boundary(self):
        compiled = engine_compile(conv_stack(), (4, 32, 32))
        whole = compiled(chips(1, shape=(4, 32, 32))).shape
        assert compiled(chips(1, shape=(4, 30, 30))).shape == whole
        assert compiled(chips(1, shape=(4, 29, 30))).shape != whole


class TestOneProgram:
    def test_a_94_and_a_100_px_chip_run_one_program(self):
        compiled = engine_compile(
            SPPNetDetector(TABLE1_MODELS["SPP-Net #3"], seed=0).eval())
        x = chips(3, seed=1)
        whole = compiled.predict(x, batch_size=3)
        bound = (dict(compiled._trunks), dict(compiled._heads))
        assert set(compiled._trunks) == {(4, 94, 94)}
        crop = compiled.predict(x[:, :, :94, :94], batch_size=3)
        assert (dict(compiled._trunks), dict(compiled._heads)) == bound
        assert same(crop, whole)
        assert compiled.memory_plan(3).peak_bytes == compiled.memory_plan(
            3, (4, 94, 94)).peak_bytes

    @pytest.mark.parametrize("name", sorted(TABLE1_MODELS))
    def test_outputs_equal_those_of_the_top_left_crop(self, table1, name):
        compiled = compiled_for(table1[name])
        side = EXTENTS[name]
        x = chips(5, seed=2)
        for n in (1, 5):
            assert same(compiled.predict(x[:n], batch_size=n),
                        compiled.predict(x[:n, :, :side, :side],
                                         batch_size=n)), n

    @pytest.mark.parametrize("name", sorted(TABLE1_MODELS))
    def test_nan_in_the_unread_strip_changes_nothing(self, table1, name):
        compiled = compiled_for(table1[name])
        side = EXTENTS[name]
        x = chips(4, seed=3)
        clean = compiled.predict(x, batch_size=4)
        x[:, :, side:, :] = np.nan
        x[:, :, :, side:] = np.nan
        dirty = compiled.predict(x, batch_size=4)
        assert same(dirty, clean)
        assert all(np.isfinite(part).all() for part in dirty)


def test_read_extent_trunk_is_the_whole_trunk_bit_for_bit(table1,
                                                          blas_threads):
    """Per Table-1 model, the trunk bound at the read extent against the
    same trunk steps bound at the whole 100 px chip, fed the same chips:
    the boundary tensors' bytes.  Bits are compared within one thread
    count, never across."""
    differ = {}
    x = np.random.default_rng(11).standard_normal(
        (6, 4, 100, 100)).astype(np.float32)
    for name in sorted(TABLE1_MODELS):
        compiled = compiled_for(table1[name])
        steps, boundary, _ = compiled._split_for((4, 100, 100))
        full = _Program(steps, boundary, 1, compiled.dtype, compiled._packed)
        read = compiled._trunk_for((4, 100, 100))
        assert read._inputs[0].shape[1] < 100        # bound at the extent
        bad = []
        for i in range(len(x)):
            for prog in (full, read):
                prog.feed(x[i:i + 1])
                prog.execute()
            bad += [i for tensor in boundary
                    if full.views[tensor].tobytes() != read.views[tensor].tobytes()]
        differ[name] = bad
    assert differ == {name: [] for name in TABLE1_MODELS}


def test_the_trunk_is_bound_at_the_extent(table1):
    compiled = compiled_for(table1["SPP-Net #3"])
    trunk = compiled._trunk_for((4, 100, 100))
    assert isinstance(trunk, _Program)
    (fed,) = trunk._inputs
    assert fed.shape == (1, 94, 94, 4)
    steps, boundary, _ = compiled._split_for((4, 100, 100))
    whole = _Program(steps, boundary, 1, compiled.dtype, compiled._packed)
    head = compiled._head_for(1, (4, 100, 100))
    # the arena the engine reports is the read-extent trunk's, smaller
    assert compiled.memory_plan(1).peak_bytes == (
        trunk.plan.peak_bytes + head.plan.peak_bytes)
    assert trunk.plan.peak_bytes < whole.plan.peak_bytes
