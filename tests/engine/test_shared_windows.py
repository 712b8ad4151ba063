"""Shared feature maps for overlapping scan windows: the split rule,
the explainable plan, and ``predict_windows`` against ``predict`` over
the gathered window stacks, byte for byte."""

import json
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.arch import TABLE1_MODELS, ConvSpec, PoolSpec
from repro.detect.scan import scan_origins
from repro.detect.sppnet import SPPNetDetector
from repro.engine import Step, compile as engine_compile, compiled_for, fusion, windows
from repro.engine.fusion import chain_at, split_shared_prefix
from repro.engine.plan import MemoryPlan
from repro.engine.windows import origin_lattice, plan_windows
from repro.nas.space import config_from_sample
from repro.scanpar import TileSource

#: (scene, window, stride): the benchmark's, a small one, a ragged last
#: origin (lattice 10), stride 30, an odd lattice (only conv1 shares),
#: lattice 1, lattice 20 (shares through conv3), no overlap (declined)
GEOMETRIES = [(600, 100, 50), (300, 100, 50), (620, 100, 50),
              (450, 100, 30), (400, 100, 25), (333, 100, 50),
              (500, 120, 40), (300, 100, 100)]
BENCH = (600, 100, 50)


def raster(size, seed=0, dtype=np.float32, bands=4):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((bands, size, size)).astype(dtype)


def gathered(compiled, image, origins, window, batch):
    """``predict`` over the window stacks: the per-window reference."""
    source = TileSource(image, window, batch_size=batch)
    parts = [compiled.predict(stack, batch_size=len(stack))
             for _, stack in source.batches(origins)]
    return (np.concatenate([conf for conf, _ in parts]),
            np.concatenate([box for _, box in parts]))


def shared(compiled, image, origins, window, batch, span=None):
    parts = list(compiled.predict_windows(image, origins, window,
                                          batch_size=batch, span=span))
    return (np.concatenate([conf for conf, _ in parts]),
            np.concatenate([box for _, box in parts]))


def same_bytes(ours, ref) -> bool:
    return all(a.dtype == b.dtype and a.tobytes() == b.tobytes()
               for a, b in zip(ours, ref))


def small_config(first_kernel=3, spp_first_level=2, fc_width=16):
    """A search-space sample shrunk to two narrow convs (a 32 px window
    still feeds the pyramid)."""
    config = config_from_sample({"first_kernel": first_kernel,
                                 "spp_first_level": spp_first_level,
                                 "fc_width": fc_width})
    return replace(
        config, convs=(ConvSpec(8, first_kernel, 1), ConvSpec(16, 3, 1)),
        pools=(PoolSpec(2, 2), PoolSpec(2, 2)))


def small_model(seed=0, **kwargs):
    return SPPNetDetector(small_config(**kwargs), seed=seed).eval()


# -- the split rule ----------------------------------------------------------

def conv_step(kind, name, src, shape, *, k=3, stride=1, padding=0,
              c_in=4, conv_out=None):
    attrs = {"kernel": k, "stride": stride, "padding": padding,
             "in_channels": c_in, "out_channels": shape[0], "bias": True,
             "weights": name, "relu": True}
    covers = (name,)
    if kind == "conv_pool":
        attrs["conv_out"] = conv_out
        covers = (f"conv_{name}", f"relu_{name}", name)
    return Step(kind, name, (src,), shape, attrs, covers, 0)


def trunk_steps(padding=0, first_stride=1):
    """input -> conv_pool p1 -> conv_pool p2 -> two pooled branches."""
    return [
        Step("input", "input", (), (4, 40, 40), {}, ("input",), 0),
        conv_step("conv_pool", "p1", "input", (8, 19, 19), padding=padding,
                  stride=first_stride, conv_out=(8, 38, 38)),
        conv_step("conv_pool", "p2", "p1", (16, 8, 8), c_in=8,
                  conv_out=(16, 17, 17)),
        Step("adaptive_pool_flatten", "a", ("p2",), (64,),
             {"output_size": 2}, ("a",), 64),
        Step("adaptive_pool_flatten", "b", ("p2",), (16,),
             {"output_size": 1}, ("b",), 16),
        Step("concat", "cat", ("a", "b"), (80,), {}, ("cat",), 0),
    ]


class TestSplitRule:
    def test_lattice_divisible_by_every_stride_shares_the_chain(self):
        split = split_shared_prefix(trunk_steps(), ("cat",), 8)
        assert [s.name for s in split.prefix] == ["input", "p1", "p2"]
        assert (split.stride, split.cut, split.reason) == (4, None, None)
        assert [(s.kind, s.name) for s in split.suffix[:2]] == [
            ("input", "p2"), ("adaptive_pool_flatten", "a")]

    def test_cut_falls_inside_the_fused_step_whose_pool_breaks(self):
        split = split_shared_prefix(trunk_steps(), ("cat",), 2)
        # 2 % (cs=2 * pool 2) != 0: conv of p2 shares, its pool does not
        conv = split.prefix[-1]
        assert [s.name for s in split.prefix] == ["input", "p1", "conv_p2"]
        assert (conv.kind, conv.out_shape) == ("conv", (16, 17, 17))
        assert conv.attrs["relu"] is False and conv.inputs == ("p1",)
        assert (split.stride, split.cut) == (2, "p2")
        entry, pool = split.suffix[:2]
        assert (entry.kind, entry.name, entry.out_shape) == (
            "input", "conv_p2", (16, 17, 17))
        assert (pool.kind, pool.name, pool.inputs, pool.out_shape) == (
            "maxpool", "p2", ("conv_p2",), (16, 8, 8))
        assert pool.attrs == {"kernel": 2, "stride": 2, "relu": True}
        # the rest of the trunk is untouched and still finds its input
        assert list(split.suffix[2:]) == trunk_steps()[3:]

    def test_odd_lattice_shares_only_the_first_conv(self):
        split = split_shared_prefix(trunk_steps(), ("cat",), 25)
        assert [s.name for s in split.prefix] == ["input", "conv_p1"]
        assert (split.stride, split.cut) == (1, "p1")

    @pytest.mark.parametrize("steps, lattice, reason", [
        (trunk_steps(padding=1), 8, fusion.PADDED_FIRST_CONV),
        (trunk_steps(first_stride=2), 25, fusion.LATTICE_SHARES_NOTHING),
        (trunk_steps()[:1] + trunk_steps()[3:4], 8, fusion.BRANCHING_TRUNK),
    ])
    def test_decline_reasons(self, steps, lattice, reason):
        if reason == fusion.BRANCHING_TRUNK:
            steps[1] = replace(steps[1], inputs=("input",))
        split = split_shared_prefix(steps, ("cat",), lattice)
        assert split.prefix == () and split.reason == reason
        assert list(split.suffix) == steps

    def test_input_with_two_consumers_is_a_branching_trunk(self):
        steps = trunk_steps()
        steps.insert(2, conv_step("conv_pool", "side", "input", (8, 19, 19),
                                  conv_out=(8, 38, 38)))
        split = split_shared_prefix(steps, ("cat",), 8)
        assert split.reason == fusion.BRANCHING_TRUNK

    def test_a_tensor_the_head_also_reads_ends_the_chain(self):
        split = split_shared_prefix(trunk_steps(), ("cat", "p1"), 8)
        assert [s.name for s in split.prefix] == ["input", "p1"]

    def test_chain_at_reshapes_for_a_scene_chunk(self):
        prefix = split_shared_prefix(trunk_steps(), ("cat",), 2).prefix
        chunk = chain_at(prefix, (4, 20, 200))
        assert [s.out_shape for s in chunk] == [
            (4, 20, 200), (8, 9, 99), (16, 7, 97)]
        assert chunk[1].attrs["conv_out"] == (8, 18, 198)
        assert [s.name for s in chunk] == [s.name for s in prefix]


# -- the explainable plan ----------------------------------------------------

def plan_of(compiled, size, window, stride):
    return compiled.window_plan((4, size, size), window,
                                scan_origins(size, window, stride))


class TestWindowPlan:
    def test_lattice_is_the_gcd_of_every_origin_coordinate(self):
        assert origin_lattice(scan_origins(600, 100, 50)) == 50
        assert origin_lattice(scan_origins(620, 100, 50)) == 10  # 520
        assert origin_lattice(scan_origins(333, 100, 50)) == 1   # 233
        # a slice's own lattice is not the scan's: never plan from it
        assert origin_lattice([(40, 80), (40, 120)]) == 40
        assert origin_lattice([(0, 0)]) == origin_lattice([]) == 0

    @pytest.mark.parametrize("name", sorted(TABLE1_MODELS))
    def test_benchmark_geometry_shares_through_conv2(self, table1, name):
        plan = plan_of(compiled_for(table1[name]), *BENCH)
        assert plan.reason is None
        assert plan.shared == ("pool1", "conv2") and plan.cut == "pool2"
        assert (plan.lattice, plan.stride) == (50, 2)
        assert plan.n_windows == 121
        assert plan.macs_shared < 0.4 * plan.macs_per_window
        # the chunk rule: rows of the per-window conv2 GEMM over the
        # scene-level output width
        crop = plan.crop
        width = (600 - TABLE1_MODELS[name].convs[0].kernel + 1) // 2 - 2
        assert plan.chunk_rows == crop * crop // width
        assert len(plan.chunk_heights) in (1, 2)

    @pytest.mark.parametrize("name", sorted(TABLE1_MODELS))
    def test_lattice_20_shares_through_conv3(self, table1, name):
        plan = plan_of(compiled_for(table1[name]), 500, 120, 40)
        assert plan.reason is None
        assert plan.shared == ("pool1", "pool2", "conv3")
        assert (plan.cut, plan.lattice, plan.stride) == ("pool3", 20, 4)

    def test_reference_numbers_on_the_benchmark_model(self, table1):
        plan = plan_of(compiled_for(table1["SPP-Net #3"]), *BENCH)
        assert (plan.chunk_rows, plan.chunk_heights, plan.crop) == (
            7, (20, 12), 47)
        # conv1 + conv2 multiply-adds per tile in the window's own
        # trunk, bound at its 94 px read extent: 8464 and 1936 GEMM rows
        # (92 x 92 and 44 x 44; 9604 and 2116 over the whole 100 px)
        assert plan.macs_per_window // plan.n_windows == 162_238_464
        assert plan.to_json()["shared"] == ("pool1", "conv2")

    def test_memory_is_depth_first(self, table1):
        compiled = compiled_for(table1["SPP-Net #3"])
        held = {}
        for height, width in [(600, 600), (1200, 600), (600, 1200)]:
            origins = [(r, c) for r in range(0, height - 99, 50)
                       for c in range(0, width - 99, 50)]
            plan = compiled.window_plan((4, height, width), 100, origins)
            assert plan.reason is None
            held[height, width] = (plan.prefix_arena_bytes
                                   + plan.carry_bytes)
        assert held[600, 600] < 20 * 2**20
        # independent of the scene's height, at most linear in its
        # width (the carry rows widen; the chunk rule halves a chunk's
        # rows as the width doubles, so the arena does not grow)
        assert held[1200, 600] == held[600, 600]
        assert held[600, 600] < held[600, 1200] <= 2 * held[600, 600]

    def test_the_scene_edge_does_not_set_the_lattice(self, table1):
        """577 px at stride 50 ends on origin 477.  The interior origins
        still share through conv2 on the stride's lattice; the 21
        windows of the edge row and column are counted, run the
        per-window trunk, and binding the geometry is silent."""
        compiled = compiled_for(table1["SPP-Net #3"])
        origins = scan_origins(577, 100, 50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = plan_of(compiled, 577, 100, 50)
            compiled.warmup_windows((4, 577, 577), 100, origins, [1])
        assert origin_lattice(origins) == 1
        assert (plan.lattice, plan.stride) == (50, 2)
        assert plan.shared == ("pool1", "conv2") and plan.cut == "pool2"
        assert (plan.n_windows, plan.edge_windows) == (121, 21)
        assert plan.to_json()["edge_windows"] == 21
        # the edge windows' own conv1 + conv2 count against the sharing
        on_grid = plan_of(compiled, 600, 100, 50)
        per_tile = on_grid.macs_per_window // 121
        assert plan.macs_per_window == on_grid.macs_per_window
        assert plan.macs_shared > 21 * per_tile
        assert plan.macs_saved == plan.macs_per_window - plan.macs_shared > 0
        assert on_grid.edge_windows == 0 and on_grid.lattice == 50

    def test_edge_windows_are_taken_only_when_they_are_less_work(
            self, table1):
        """Both lattices are planned and the one that saves more runs:
        an edge origin that is on the prefix's grid anyway costs
        nothing (620 px: 520 is even), and one that would trade a
        deeper prefix for whole trunks is not taken (600 px at stride
        48: conv3 shares on lattice 4 with no edge window, the whole
        trunk on 48 with 23)."""
        compiled = compiled_for(table1["SPP-Net #3"])
        for size, stride, lattice, last, edge in [
                (620, 50, 10, "conv2", 0), (596, 50, 2, "conv2", 0),
                (613, 50, 50, "conv2", 23), (333, 50, 50, "conv2", 11),
                (600, 48, 4, "conv3", 0), (580, 48, 48, "pool3", 0)]:
            plan = plan_of(compiled, size, 100, stride)
            assert (plan.lattice, plan.shared[-1], plan.edge_windows) == (
                lattice, last, edge), (size, stride)
            assert plan.macs_shared < plan.macs_per_window
        # two origins an axis: no interior to read a stride from
        corners = plan_of(compiled, 150, 100, 50)
        assert (corners.lattice, corners.edge_windows) == (50, 0)

    def test_a_warmed_scan_with_edge_windows_binds_nothing_more(self):
        compiled = engine_compile(
            SPPNetDetector(TABLE1_MODELS["SPP-Net #3"], seed=0).eval())
        origins = scan_origins(577, 100, 50)
        compiled.warmup_windows((4, 577, 577), 100, origins, [20, 1])
        scan = compiled._scan[2]
        assert scan.trunk is compiled._trunks[(4, 94, 94)]
        bound = (dict(compiled._trunks), dict(compiled._heads), scan)
        image = raster(577, seed=1)
        list(compiled.predict_windows(image, origins, 100, batch_size=20))
        assert (dict(compiled._trunks), dict(compiled._heads),
                compiled._scan[2]) == bound

    def test_a_cut_steps_pool_reads_the_ring_in_place(self, table1):
        """When the cut falls inside a fused step, the window's pool
        runs off the carry buffer and the suffix program starts at the
        pooled tensor: no crop is copied.  With no cut the suffix is
        fed the crop of the prefix's output."""
        compiled = compiled_for(table1["SPP-Net #3"])
        for size, stride, cut, fed in [(600, 50, "pool2", (1, 23, 23, 128)),
                                       (600, 48, "pool3", (1, 10, 10, 256)),
                                       (580, 48, None, (1, 10, 10, 256))]:
            plan = plan_of(compiled, size, 100, stride)
            scan = compiled._scan[2]
            assert plan.cut == cut and scan._pools == (cut is not None)
            (entry,) = scan.suffix._inputs
            assert entry.shape == fed
            # the ring, plus the row that mirrors its first
            assert len(scan.carry) == plan.carry_rows + 1
            assert plan.carry_bytes == scan.carry.nbytes

    def test_stride_at_or_past_the_window_is_not_less_work(self, table1):
        for stride in (100, 130):
            plan = plan_of(compiled_for(table1["SPP-Net #3"]), 600, 100,
                           stride)
            assert plan.reason == windows.NOT_LESS_WORK
            assert plan.macs_shared >= plan.macs_per_window > 0

    def test_padded_first_conv_declines(self):
        model = small_model()
        model.trunk.layers[0].padding = 1
        compiled = engine_compile(model, (4, 32, 32))
        assert plan_of(compiled, 96, 32, 16).reason == \
            fusion.PADDED_FIRST_CONV

    def test_strided_first_conv_on_an_odd_lattice_shares_nothing(self):
        config = replace(small_config(), convs=(ConvSpec(8, 3, 2),
                                                ConvSpec(16, 3, 1)))
        compiled = engine_compile(SPPNetDetector(config, seed=0).eval(),
                                  (4, 48, 48))
        assert plan_of(compiled, 123, 48, 25).reason == \
            fusion.LATTICE_SHARES_NOTHING
        assert plan_of(compiled, 128, 48, 16).reason is None

    def test_branching_trunk_and_trunkless_model_decline(self):
        steps = trunk_steps()
        steps.insert(2, conv_step("conv_pool", "side", "input", (8, 19, 19),
                                  conv_out=(8, 38, 38)))
        origins = scan_origins(120, 40, 8)
        for trunk, reason in [(steps, fusion.BRANCHING_TRUNK),
                              ([], windows.NO_TRUNK)]:
            plan, split = plan_windows(trunk, ("cat",), (4, 120, 120), 40,
                                       origins, 4)
            assert plan.reason == reason and split is None

    @pytest.mark.parametrize("name", sorted(TABLE1_MODELS))
    def test_no_decline_reason_fires_on_the_benchmark_geometry(
            self, table1, name):
        origins = scan_origins(600, 100, 50)
        trunk, boundary, _ = compiled_for(table1[name])._split_for(
            (4, 100, 100))
        plan, split = plan_windows(trunk, boundary, (4, 600, 600), 100,
                                   origins, 4)
        assert plan.reason is None and split is not None

    def test_the_decision_is_the_same_in_two_fresh_processes(self):
        code = (
            "import json\n"
            "from repro.arch import TABLE1_MODELS\n"
            "from repro.detect import SPPNetDetector, scan_origins\n"
            "from repro.engine import compiled_for\n"
            "model = SPPNetDetector(TABLE1_MODELS['SPP-Net #3'], seed=0)\n"
            "plan = compiled_for(model.eval()).window_plan(\n"
            "    (4, 600, 600), 100, scan_origins(600, 100, 50))\n"
            "print(json.dumps(plan.to_json(), sort_keys=True))\n")
        runs = [subprocess.run([sys.executable, "-c", code], check=True,
                               capture_output=True, text=True).stdout
                for _ in range(2)]
        assert runs[0] == runs[1]
        assert json.loads(runs[0])["chunk_rows"] == 7


# -- predict_windows == predict over the gathered stacks ---------------------

@pytest.mark.parametrize("name", sorted(TABLE1_MODELS))
def test_table1_models_bitwise_equal_at_every_geometry(table1,
                                                       window_reference,
                                                       name):
    compiled = compiled_for(table1[name])
    for size, window, stride in GEOMETRIES:
        ref = window_reference(name, size, window, stride)
        assert same_bytes(shared(compiled, ref.image, ref.origins, window, 20),
                          ref.outputs), (name, size, window, stride)
        declined = compiled.window_plan(ref.image.shape, window,
                                        ref.origins).reason
        assert (declined is not None) == (stride >= window)


#: scene sizes whose edge origin is on the stride's lattice (600 at 50,
#: 580 at 48), on a coarser one that shares as much (580 / 596 at 50,
#: 596 at 48), or off every grid past conv1 (577, 613; 600 at 48)
SCENE_SIZES = (577, 580, 596, 600, 613)


@pytest.mark.parametrize("stride", [48, 50])
@pytest.mark.parametrize("size", SCENE_SIZES)
def test_scene_sizes_off_the_stride_are_bitwise_equal(
        table1, window_reference, size, stride):
    """The shared scan at batch 1, 7 and 20 against one reference: a
    row of these models does not depend on its batch."""
    compiled = compiled_for(table1["SPP-Net #3"])
    ref = window_reference("SPP-Net #3", size, 100, stride)
    plan = compiled.window_plan(ref.image.shape, 100, ref.origins)
    assert plan.reason is None and plan.shared[-1] != "conv1"
    for batch in (1, 7, 20):
        assert same_bytes(shared(compiled, ref.image, ref.origins, 100, batch),
                          ref.outputs), (size, stride, batch)


def test_spans_of_edge_windows_are_bitwise_equal(table1, window_reference):
    """577 px at stride 50 is 11 x 11 windows, the last of every row and
    the whole last row off the lattice.  A span that starts on the edge
    column, one that is the edge row alone and one of a single edge
    window compute what ``predict`` computes over their stacks: the
    span's slice of the whole scan's reference."""
    compiled = compiled_for(table1["SPP-Net #3"])
    ref = window_reference("SPP-Net #3", 577, 100, 50)
    origins = ref.origins
    assert origins[10] == (0, 477) and origins[110] == (477, 0)
    for start, stop in [(10, 40), (110, 121), (120, 121), (0, 10)]:
        ours = shared(compiled, ref.image, origins, 100, 10,
                      span=(start, stop))
        assert same_bytes(ours, (ref.conf[start:stop],
                                 ref.boxes[start:stop])), (start, stop)
    assert compiled.window_plan(ref.image.shape, 100,
                                origins).edge_windows == 21


def check_geometry(model_kwargs, window, size, stride, batch, seed):
    """One model x scan geometry: the shared scan is ``predict`` over
    the stacks, and the plan's numbers are consistent with it."""
    model = small_model(seed, **model_kwargs)
    compiled = engine_compile(model, (4, window, window))
    image = raster(size, seed=seed)
    origins = scan_origins(size, window, stride)
    ours = shared(compiled, image, origins, window, batch)
    assert same_bytes(ours, gathered(compiled, image, origins, window, batch))
    plan = compiled.window_plan(image.shape, window, origins)
    if plan.reason is None:
        assert plan.macs_shared < plan.macs_per_window
        assert plan.lattice % plan.stride == 0
        off_grid = [o for o in origins
                    if o[0] % plan.stride or o[1] % plan.stride]
        assert plan.edge_windows == len(off_grid)
        # never more than the edge row and column
        per_axis = len({r for r, _ in origins})
        assert plan.edge_windows <= 2 * per_axis - 1
        assert all(size - window in o for o in off_grid)
    return plan, origins


@settings(derandomize=True, deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.too_slow])
@given(first_kernel=st.sampled_from((1, 3, 5, 7, 9)),
       spp_first_level=st.integers(1, 5),
       fc_width=st.sampled_from((8, 16, 24)),
       window=st.integers(32, 44),
       extra=st.integers(0, 60),
       stride=st.one_of(st.integers(4, 40),
                        st.sampled_from(("window", "beyond"))),
       batch=st.sampled_from((1, 7, 20)),
       seed=st.integers(0, 2**16))
# 9 origins at stride 23 < window 32 that still decline: 8,128,512
# multiply-adds shared and per window, at every SPP first level
@example(first_kernel=7, spp_first_level=1, fc_width=8, window=32, extra=46,
         stride=23, batch=7, seed=0)
def test_model_space_property(first_kernel, spp_first_level, fc_width,
                              window, extra, stride, batch, seed):
    """Random search-space samples x scan geometries (ragged last
    origins, odd lattices, stride == window, stride > window) x
    batch."""
    if stride == "window":
        stride = window
    elif stride == "beyond":
        stride = window + 5
    plan, _ = check_geometry(
        dict(first_kernel=first_kernel, spp_first_level=spp_first_level,
             fc_width=fc_width), window, window + extra, stride, batch, seed)
    if plan.reason is not None:
        # the only way an unpadded chain on a lattice declines, and the
        # rule that declines it
        assert plan.reason == windows.NOT_LESS_WORK
        assert plan.macs_shared >= plan.macs_per_window


@settings(derandomize=True, deadline=None, max_examples=30,
          suppress_health_check=[HealthCheck.too_slow])
@given(first_kernel=st.sampled_from((1, 3, 5)),
       spp_first_level=st.integers(1, 5),
       window=st.integers(32, 44),
       stride=st.sampled_from((8, 12, 16, 20, 24)),
       steps=st.integers(4, 8),
       remainder=st.sampled_from((1, 2, 3, 5, 7)),
       batch=st.sampled_from((1, 7, 20)),
       seed=st.integers(0, 2**16))
def test_scene_sizes_off_the_stride_property(first_kernel, spp_first_level,
                                             window, stride, steps,
                                             remainder, batch, seed):
    """Scenes whose size is not a multiple of the stride: ``steps``
    strides of interior origins, then an edge origin ``remainder`` px
    past the last.  The scan is exact whatever that origin does to the
    gcd; when it leaves windows off the grid, the grid is the stride's.
    (Small first kernels, so that sharing conv2 is worth the edge
    windows' whole trunks; and at 8 filters a 9 px kernel's per-window
    block GEMM is under OpenBLAS's small-matrix switch while its
    scene-wide one is not, see
    ``test_sgemm_rows_do_not_depend_on_their_call``.)"""
    size = window + steps * stride + remainder
    plan, origins = check_geometry(
        dict(first_kernel=first_kernel, spp_first_level=spp_first_level,
             fc_width=16), window, size, stride, batch, seed)
    assert origins[-1] == (size - window,) * 2
    if plan.reason is not None:
        # chunks one row high recompute more halo than windows overlap
        assert plan.reason == windows.NOT_LESS_WORK
    elif plan.edge_windows:
        assert plan.lattice == stride
    else:
        assert plan.lattice in (stride, origin_lattice(origins))


def test_float64_raster_goes_through_float32_like_the_tile_buffer():
    for dtype in (np.float32, np.float64):
        compiled = engine_compile(small_model(), (4, 32, 32), dtype=dtype)
        image = raster(80, seed=1, dtype=np.float64)
        origins = scan_origins(80, 32, 16)
        assert compiled.window_plan(image.shape, 32, origins).reason is None
        assert same_bytes(shared(compiled, image, origins, 32, 5),
                          gathered(compiled, image, origins, 32, 5))


def test_sgemm_rows_do_not_depend_on_their_call():
    """The one thing ``predict_windows == predict`` leans on the BLAS
    for: a row of ``A @ W`` is the same bytes whichever other rows share
    the call — a chunk's GEMM and a window's GEMM hold the same row
    among different neighbours.  Probed at the GEMM sizes the Table-1
    shared layers issue (first conv k = 1..9 in 4-row blocks at window
    and scene width, conv2 and conv3 per window and per chunk), at row
    offsets off any micro-tile.  (It does *not* hold across OpenBLAS's
    small-matrix switch, around ``M * N * K <= 1e6`` with a deep ``K``;
    no shared layer issues a GEMM that small.)"""
    rng = np.random.default_rng(0)
    shapes = [(4 * k * k + 1, 64, 4 * (600 - k + 1), 4 * (100 - k + 1))
              for k in (1, 3, 5, 7, 9)]
    shapes += [(64 * 9 + 1, 128, 7 * 297, 47 * 47),
               (128 * 9 + 1, 256, 5 * 121, 26 * 26)]
    for depth, filters, chunk, window in shapes:
        a = rng.standard_normal((max(chunk, window) + 13, depth)).astype(
            np.float32)
        w = rng.standard_normal((depth, filters)).astype(np.float32)
        in_chunk = a[:chunk] @ w
        for start in (0, 1, 3, 7, 13):
            in_window = np.ascontiguousarray(a[start:start + window]) @ w
            stop = min(chunk, start + window)
            assert (in_window[:stop - start].tobytes()
                    == in_chunk[start:stop].tobytes()), \
                (depth, filters, chunk, window, start)


# -- shards, interleaving, validation ----------------------------------------

class TestSpans:
    def setup_method(self):
        self.model = small_model(5)
        self.image = raster(150, seed=5)
        self.origins = scan_origins(150, 40, 10)     # 12 x 12 windows

    def test_a_shard_starting_mid_row_computes_the_full_scans_bytes(self):
        full = engine_compile(self.model, (4, 40, 40))
        conf, box = shared(full, self.image, self.origins, 40, 7)
        full_shapes = set(full._scan[2].prefixes)
        # shards start on micro-batch boundaries (the head's GEMM sees
        # its batch-mates), which at 12 windows a row is mid-row
        for start, stop in [(21, 84), (84, 144), (35, 42)]:
            shard = engine_compile(self.model, (4, 40, 40))
            ours = shared(shard, self.image, self.origins, 40, 7,
                          span=(start, stop))
            assert same_bytes(ours, (conf[start:stop], box[start:stop]))
            # the scan's plan and prefix shapes, not the slice's
            assert shard._scan[1] == full._scan[1]
            assert set(shard._scan[2].prefixes) == full_shapes
            assert shard._scan[1].lattice == 10

    def test_interleaved_generators_do_not_corrupt_each_other(self):
        compiled = engine_compile(self.model, (4, 40, 40))
        ref = shared(compiled, self.image, self.origins, 40, 7)
        other = raster(150, seed=6)
        a = compiled.predict_windows(self.image, self.origins, 40, 7)
        b = compiled.predict_windows(other, self.origins, 40, 7)
        parts = [pair for pair, _ in zip(a, b)]
        ours = (np.concatenate([conf for conf, _ in parts]),
                np.concatenate([box for _, box in parts]))
        assert same_bytes(ours, ref)

    def test_unsorted_origins_are_still_exact(self):
        compiled = engine_compile(self.model, (4, 40, 40))
        shuffled = list(self.origins)
        np.random.default_rng(0).shuffle(shuffled)
        shuffled = [tuple(int(v) for v in o) for o in shuffled]
        assert same_bytes(
            shared(compiled, self.image, shuffled, 40, 7),
            gathered(compiled, self.image, shuffled, 40, 7))

    def test_every_bound_program_checks_its_memory_plan(self, monkeypatch):
        checked = []
        real = MemoryPlan.check

        def check(plan):
            checked.append(plan)
            return real(plan)
        monkeypatch.setattr(MemoryPlan, "check", check)
        compiled = engine_compile(self.model, (4, 40, 40))
        compiled.warmup_windows(self.image.shape, 40, self.origins, [7])
        scan = compiled._scan[2]
        # batch 7 runs in the head bound at two 4-row blocks
        h, w, _ = compiled.read_extent((4, 40, 40))
        bound = [*scan.prefixes.values(), scan.suffix,
                 compiled._heads[(8, 4, h, w)]]
        assert {id(p.plan) for p in bound} <= {id(p) for p in checked}
        # the windows path needs no per-window trunk
        assert not compiled._trunks

    def test_windows_must_fit_the_raster(self):
        compiled = engine_compile(self.model, (4, 40, 40))
        with pytest.raises(ValueError, match="does not fit"):
            next(compiled.predict_windows(self.image, [(0, 0), (120, 0)],
                                          40))
        with pytest.raises(ValueError, match=r"\(C, H, W\)"):
            next(compiled.predict_windows(self.image[0], [(0, 0)], 40))
