"""Conv kernel variants: equivalence, fused pooling, and the selector."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.arch import TABLE1_MODELS, ConvSpec, PoolSpec, SPPNetConfig
from repro.detect.sppnet import SPPNetDetector
from repro.engine import CONV_VARIANTS, CompiledModel, conv_variant
from repro.engine import compiled as compiled_mod
from repro.engine.kernels import (
    TILED_MAX_DEPTH,
    bind_conv,
    conv_out_hw,
    conv_scratch_elems,
    pack_conv_weight,
    pooled_extent,
)
from repro.nas.space import config_from_sample, sppnet_search_space
from repro.tensor import Tensor, no_grad
from repro.tensor.modules import Conv2d, MaxPool2d, ReLU, Sequential


SRC = str(Path(__file__).resolve().parents[2] / "src")


def small_config(kernel=3):
    return SPPNetConfig(
        convs=(ConvSpec(8, kernel, 1), ConvSpec(16, 3, 1)),
        pools=(PoolSpec(2, 2), PoolSpec(2, 2)),
        spp_levels=(2, 1), fc_sizes=(32,), in_channels=4,
    )


def run_variant(variant, *, batch=2, h=13, w=11, c=3, f=8, k=3, stride=1,
                pad=0, relu=True, pool=None, bias=True, seed=0):
    """Bind one conv kernel on standalone buffers and run it."""
    rng = np.random.default_rng(seed)
    src = rng.standard_normal((batch, h, w, c)).astype(np.float32)
    weight = rng.standard_normal((f, c, k, k)).astype(np.float32)
    b_vec = rng.standard_normal(f).astype(np.float32) if bias else None
    ho, wo = conv_out_hw(h, w, k, stride, pad)
    out_hw = (ho // 2, wo // 2) if pool else (ho, wo)
    out = np.empty((batch,) + out_hw + (f,), dtype=np.float32)
    scratch = np.empty(batch * conv_scratch_elems(
        variant, batch=batch, h=h, w=w, c_in=c, out_channels=f, kernel=k,
        stride=stride, padding=pad, bias=bias, pool=pool is not None),
        dtype=np.float32)
    fn = bind_conv(
        variant, src=src, out=out, scratch=scratch, k=k, stride=stride,
        pad=pad, relu=relu, pool=pool,
        w_pack=pack_conv_weight(weight, b_vec, np.dtype(np.float32)))
    fn()
    return out


def force_variant(monkeypatch, variant):
    """Bind ``variant`` on every conv, whatever the selector says."""
    monkeypatch.setattr(compiled_mod, "conv_variant",
                        lambda c_in, kernel: variant)


#: every kernel other than the ``im2col`` reference
NON_REFERENCE = [v for v in CONV_VARIANTS if v != "im2col"]


class TestKernelEquivalence:
    """im2col is the reference; the other variants must match it."""

    @pytest.mark.parametrize("variant", NON_REFERENCE)
    @pytest.mark.parametrize("pool", [None, (2, 2)])
    @pytest.mark.parametrize("pad", [0, 1])
    def test_3x3_stride1(self, variant, pool, pad):
        kw = dict(h=14, w=12, c=5, f=7, k=3, stride=1, pad=pad, pool=pool)
        ref = run_variant("im2col", **kw)
        got = run_variant(variant, **kw)
        np.testing.assert_allclose(got, ref, atol=2e-5, rtol=1e-4)

    @pytest.mark.parametrize("k,stride", [(5, 1), (3, 2), (1, 1), (7, 1),
                                          (9, 1)])
    def test_tiled_other_geometries(self, k, stride):
        kw = dict(h=17, w=15, c=4, f=6, k=k, stride=stride, pad=0)
        ref = run_variant("im2col", **kw)
        got = run_variant("im2col_tiled", **kw)
        np.testing.assert_allclose(got, ref, atol=2e-5, rtol=1e-4)

    @pytest.mark.parametrize("pool", [None, (2, 2)])
    @pytest.mark.parametrize("k,stride,pad", [(5, 2, 2), (7, 1, 3),
                                              (3, 2, 1), (9, 2, 4)])
    def test_tiled_strided_padded(self, k, stride, pad, pool):
        kw = dict(h=17, w=15, c=4, f=6, k=k, stride=stride, pad=pad,
                  pool=pool)
        ref = run_variant("im2col", **kw)
        got = run_variant("im2col_tiled", **kw)
        np.testing.assert_allclose(got, ref, atol=2e-5, rtol=1e-4)

    def test_without_bias_and_relu(self):
        kw = dict(h=10, w=10, c=3, f=4, bias=False, relu=False)
        ref = run_variant("im2col", **kw)
        for variant in NON_REFERENCE:
            np.testing.assert_allclose(
                run_variant(variant, **kw), ref, atol=2e-5, rtol=1e-4)

    def test_odd_output_with_fused_pool(self):
        # 13x11 input -> 11x9 conv output -> 5x4 pooled: the pool floors
        # away the odd edge, which trips a kernel that pools a trailing
        # block row past the last pool window.  The other shapes put the
        # odd edge on one axis only, and on a block boundary (9 rows =
        # two 4-row blocks + 1).
        for h, w in [(13, 11), (12, 13), (11, 12), (7, 6)]:
            kw = dict(h=h, w=w, c=3, f=8, pool=(2, 2))
            ref = run_variant("im2col", **kw)
            for variant in NON_REFERENCE:
                np.testing.assert_allclose(
                    run_variant(variant, **kw), ref, atol=2e-5, rtol=1e-4)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            run_variant("fft")


def search_space_layers():
    """(c_in, filters, kernel, input side) of every conv layer a
    search-space sample can hold, at the 100 px window."""
    layers = set()
    for kernel in sppnet_search_space()["first_kernel"].candidates:
        config = config_from_sample({"first_kernel": kernel,
                                     "spp_first_level": 1, "fc_width": 128})
        c_in, side = config.in_channels, 100
        for conv in config.convs:
            layers.add((c_in, conv.filters, conv.kernel, side))
            c_in, side = conv.filters, (side - conv.kernel + 1) // 2
    return sorted(layers)


class TestPooledExtent:
    """A fused ``conv_pool`` gathers and multiplies only the conv rows
    and columns its floor-mode pool reads; the result is the full conv
    followed by the pool, bit for bit."""

    def test_extent_drops_the_odd_row_and_column(self):
        assert pooled_extent(21, 21) == (20, 20)
        assert pooled_extent(22, 47) == (22, 46)
        assert pooled_extent(1, 2) == (0, 2)

    @pytest.mark.parametrize("variant", CONV_VARIANTS)
    @pytest.mark.parametrize("c_in, filters, kernel, side",
                             search_space_layers())
    def test_trimmed_equals_full_conv_then_pool(self, variant, c_in, filters,
                                                kernel, side):
        for dh, dw in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            kw = dict(batch=1, h=side + dh, w=side + dw, c=c_in, f=filters,
                      k=kernel)
            full = run_variant(variant, relu=False, **kw)
            ph, pw = full.shape[1] // 2, full.shape[2] // 2
            pairs = full[:, :2 * ph, :2 * pw].reshape(1, ph, 2, pw, 2, filters)
            ref = np.maximum(pairs.max(axis=(2, 4)), 0.0)
            got = run_variant(variant, pool=(2, 2), **kw)
            assert got.tobytes() == ref.tobytes(), (variant, kw)

    def test_scratch_counts_only_what_the_pool_reads(self):
        for variant in CONV_VARIANTS:
            kw = dict(batch=1, c_in=128, out_channels=256, kernel=3,
                      stride=1, padding=0, bias=True, pool=True)
            odd = conv_scratch_elems(variant, h=23, w=23, **kw)
            even = conv_scratch_elems(variant, h=22, w=22, **kw)
            assert odd == even      # 21x21 conv output, 20x20 read
        assert conv_scratch_elems("im2col", h=23, w=23, **kw) == \
            400 * (128 * 9 + 1) + 400 * 256

    def test_planned_peak_bytes_does_not_grow(self):
        """Arena bytes at batch 1 / 20 against the untrimmed kernels'
        (PR 22): three models lose 262 KB; #1's largest scratch is its
        even 46 x 46 conv2, and #1 shrinks too, by the few bytes a
        linear's output saves writing over its dying input.  Batch 1 is
        measured as PR 22 bound it, the head at one row: the engine now
        binds it at a 4-row block, which adds the head's pad rows and
        no conv scratch."""
        before = {"Original SPP-Net": (7145620, 7632324),
                  "SPP-Net #1": (6890272, 7376976),
                  "SPP-Net #2": (7167124, 8062404),
                  "SPP-Net #3": (7158932, 7898564)}
        shape = (4, 100, 100)
        for name, config in TABLE1_MODELS.items():
            compiled = CompiledModel(SPPNetDetector(config, seed=0).eval(),
                                     shape)
            trunk = compiled._trunk_for(shape)
            one_row = compiled_mod._Program(
                compiled._split_for(shape)[2], compiled.outputs, 1,
                compiled.dtype, compiled._packed)
            now = (trunk.plan.peak_bytes + one_row.plan.peak_bytes,
                   compiled.planned_peak_bytes(20))
            assert all(n <= b for n, b in zip(now, before[name])), name
            assert now < before[name], name


class TestCompiledEquivalence:
    """Every variant must produce eager-equivalent full-model outputs,
    on every layer — not only the ones the selector gives it."""

    @pytest.mark.parametrize("variant", CONV_VARIANTS)
    def test_forced_variant_matches_eager(self, variant, monkeypatch):
        force_variant(monkeypatch, variant)
        from repro.detect.predict import predict

        model = SPPNetDetector(small_config(), seed=3)
        model.eval()
        x = np.random.default_rng(0).standard_normal(
            (3, 4, 32, 32)).astype(np.float32)
        conf, boxes = predict(model, x, batch_size=3)
        compiled = CompiledModel(model, (4, 32, 32))
        assert set(compiled.kernel_choices(3).values()) == {variant}
        eng_conf, eng_boxes = compiled.predict(x, batch_size=3)
        np.testing.assert_allclose(eng_conf, conf, atol=1e-4, rtol=1e-3)
        np.testing.assert_allclose(eng_boxes, boxes, atol=1e-4, rtol=1e-3)

    @pytest.mark.parametrize("variant", CONV_VARIANTS)
    def test_forced_variant_padded_conv(self, variant, monkeypatch):
        force_variant(monkeypatch, variant)
        net = Sequential(Conv2d(3, 8, 3, padding=1), ReLU(), MaxPool2d(2, 2))
        net.eval()
        x = np.random.default_rng(1).standard_normal(
            (2, 3, 10, 10)).astype(np.float32)
        with no_grad():
            eager = net(Tensor(x)).data
        compiled = CompiledModel(net, (3, 10, 10))
        assert set(compiled.kernel_choices(2).values()) == {variant}
        np.testing.assert_allclose(compiled(x), eager, atol=1e-4, rtol=1e-3)

    def test_kernel_choices_reported(self):
        model = SPPNetDetector(small_config(), seed=3)
        model.eval()
        compiled = CompiledModel(model, (4, 32, 32))
        compiled.predict(np.zeros((1, 4, 32, 32), dtype=np.float32))
        choices = compiled.kernel_choices(batch=1)
        assert choices  # one entry per conv step
        assert all(v in CONV_VARIANTS for v in choices.values())


def conv_geometry(config):
    """(c_in, kernel) per conv layer of an SPPNetConfig."""
    c_in, out = config.in_channels, []
    for conv in config.convs:
        out.append((c_in, conv.kernel))
        c_in = conv.filters
    return out


CHOICES_SCRIPT = """
import json
from repro.arch import TABLE1_MODELS
from repro.detect import SPPNetDetector
from repro.engine import compile
print(json.dumps({
    name: {str(b): list(compiled.kernel_choices(b).values())
           for b in (1, 5, 20)}
    for name, config in TABLE1_MODELS.items()
    for compiled in [compile(SPPNetDetector(config, seed=0).eval())]
}))
"""


class TestSelector:
    """Kernel choice is a pure function of (c_in, kernel)."""

    def test_threshold_is_gemm_depth(self):
        assert conv_variant(4, 3) == "im2col_tiled"       # depth 36
        assert conv_variant(4, 5) == "im2col_tiled"       # depth 100
        assert conv_variant(TILED_MAX_DEPTH, 1) == "im2col_tiled"
        assert conv_variant(TILED_MAX_DEPTH + 1, 1) == "im2col"
        assert conv_variant(64, 3) == "im2col"            # depth 576
        assert conv_variant(128, 3) == "im2col"

    def test_table1_models_bind_tiled_then_im2col(self):
        for config in TABLE1_MODELS.values():
            picks = [conv_variant(c, k) for c, k in conv_geometry(config)]
            assert picks == ["im2col_tiled", "im2col", "im2col"]

    def test_fresh_processes_agree_with_the_selector(self):
        """Determinism by construction: two cold interpreters compile
        every Table-1 model to the same kernels at every batch, and
        those are the selector's output — nothing was measured."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        runs = [json.loads(subprocess.run(
            [sys.executable, "-c", CHOICES_SCRIPT], env=env, check=True,
            capture_output=True, text=True, timeout=300).stdout)
            for _ in range(2)]
        assert runs[0] == runs[1]
        for name, config in TABLE1_MODELS.items():
            expected = [conv_variant(c, k) for c, k in conv_geometry(config)]
            assert runs[0][name] == {"1": expected, "5": expected,
                                     "20": expected}
