"""Architecture grammar (Table 1) rendering and derived quantities."""

import pytest

from repro.arch import (
    TABLE1_MODELS,
    TABLE1_PAPER_AP,
    TABLE2_PAPER_LATENCY_MS,
    ConvSpec,
    PoolSpec,
    SPPNetConfig,
)


class TestSpecs:
    def test_conv_spec_validation(self):
        with pytest.raises(ValueError):
            ConvSpec(0, 3, 1)
        with pytest.raises(ValueError):
            ConvSpec(64, 3, 0)

    def test_pool_spec_validation(self):
        with pytest.raises(ValueError):
            PoolSpec(0, 2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SPPNetConfig(spp_levels=())
        with pytest.raises(ValueError):
            SPPNetConfig(spp_levels=(2, 2))
        with pytest.raises(ValueError):
            SPPNetConfig(fc_sizes=())
        with pytest.raises(ValueError):
            SPPNetConfig(convs=(ConvSpec(64, 3, 1),))  # pools mismatch


class TestDerived:
    def test_spp_features(self):
        cfg = TABLE1_MODELS["Original SPP-Net"]
        assert cfg.spp_features == 256 * (16 + 4 + 1)
        cfg2 = TABLE1_MODELS["SPP-Net #2"]
        assert cfg2.spp_features == 256 * (25 + 4 + 1)

    def test_trunk_spatial_size_100(self):
        for cfg in TABLE1_MODELS.values():
            assert cfg.trunk_spatial_size(100) >= max(cfg.spp_levels)

    def test_trunk_collapse_raises(self):
        with pytest.raises(ValueError):
            TABLE1_MODELS["Original SPP-Net"].trunk_spatial_size(4)

    def test_min_input_size_is_minimal(self):
        cfg = TABLE1_MODELS["SPP-Net #2"]
        m = cfg.min_input_size()
        assert cfg.trunk_spatial_size(m) >= max(cfg.spp_levels)
        with pytest.raises(ValueError):
            size = cfg.trunk_spatial_size(m - 1)
            assert size < max(cfg.spp_levels)
            raise ValueError  # smaller input is invalid either way

    def test_with_name(self):
        out = TABLE1_MODELS["SPP-Net #1"].with_name("renamed")
        assert out.name == "renamed"
        assert out.convs == TABLE1_MODELS["SPP-Net #1"].convs


class TestGrammar:
    def test_parse_paper_string(self):
        text = ("C_{64,3,1} - P_{2,2} - C_{128,3,1} - P_{2,2} - "
                "C_{256,3,1} - P_{2,2} - SPP_{4,2,1} - F_{1024}")
        assert TABLE1_MODELS["Original SPP-Net"].grammar() == text


class TestPaperConstants:
    def test_four_models(self):
        assert set(TABLE1_MODELS) == set(TABLE1_PAPER_AP) == set(TABLE2_PAPER_LATENCY_MS)

    def test_table1_values(self):
        assert TABLE1_PAPER_AP["SPP-Net #3"] == 0.974
        assert TABLE1_PAPER_AP["Original SPP-Net"] == 0.95

    def test_table2_optimized_always_faster(self):
        for seq, opt in TABLE2_PAPER_LATENCY_MS.values():
            assert opt < seq

    def test_model_distinctions(self):
        assert TABLE1_MODELS["SPP-Net #1"].convs[0].kernel == 5
        assert TABLE1_MODELS["SPP-Net #2"].spp_levels == (5, 2, 1)
        assert TABLE1_MODELS["SPP-Net #3"].fc_sizes == (2048,)
