"""The detector's memory footprint: one float32 copy of its weights.

``benchmarks/model_footprint.py`` reads a fresh process's own peak RSS
(Linux's ``VmHWM``) around SPP-Net #3's build, engine warm-up and an eager
predict.  A float64 copy of the weights anywhere (a float64 build cast
afterwards, or eager ops promoting the FC to float64) adds ~120 MB to
one of the three and fails its bound, and an engine that packs its own
float32 copy of the FC adds ~60 MB to the compile.
"""

import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

import model_footprint  # noqa: E402

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="the probe reads peak RSS from Linux's VmHWM")


@pytest.fixture(scope="module")
def footprint():
    return model_footprint.measure("SPP-Net #3")


def test_weights_are_one_float32_copy(footprint):
    # 7680 x 2048 + the rest, 4 bytes each
    assert 60 < footprint["weight_mb"] < 63


def test_building_the_model_holds_no_float64_draw(footprint):
    assert footprint["build_mb"] <= 80


def test_warmed_engine_process_peak(footprint):
    assert footprint["engine_peak_mb"] <= 190


def test_compile_shares_the_fc_with_the_module(footprint):
    # conv packs and arenas read ~3 MB; a packed FC copy would add 60
    assert footprint["compile_mb"] <= 20


def test_eager_predict_makes_no_float64_weight_copy(footprint):
    assert footprint["eager_mb"] <= 45
