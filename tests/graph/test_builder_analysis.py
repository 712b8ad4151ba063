"""SPP-Net graph lowering and static cost analysis."""

import pytest

from repro.arch import TABLE1_MODELS
from repro.graph import (
    GraphError,
    activation_bytes,
    build_inception_graph,
    build_sppnet_graph,
    op_cost,
    weight_bytes,
)


def total(graph, batch, field):
    """One forward execution's sum of an :class:`OpCost` field."""
    return sum(getattr(op_cost(graph, op, batch), field) for op in graph.nodes())


class TestSPPNetBuilder:
    def test_structure_of_original(self):
        g = build_sppnet_graph(TABLE1_MODELS["Original SPP-Net"])
        names = g.names()
        for expected in ("conv1", "pool3", "spp4", "spp2", "spp1",
                         "spp_concat", "fc1", "cls_head", "box_head"):
            assert expected in names

    def test_spp_branches_parallel(self):
        g = build_sppnet_graph(TABLE1_MODELS["SPP-Net #2"])
        assert g.predecessors("spp5") == ("pool3",)
        assert g.predecessors("spp2") == ("pool3",)
        assert set(g.predecessors("spp_concat")) == {"spp5", "spp2", "spp1"}

    def test_spatial_shapes_100px(self):
        g = build_sppnet_graph(TABLE1_MODELS["Original SPP-Net"], input_size=100)
        assert g["conv1"].out_shape == (64, 98, 98)
        assert g["pool1"].out_shape == (64, 49, 49)
        assert g["pool3"].out_shape == (256, 10, 10)
        assert g["spp_concat"].out_shape == (256 * 21,)

    def test_fc_feature_sizes(self):
        cfg = TABLE1_MODELS["SPP-Net #2"]
        g = build_sppnet_graph(cfg)
        assert g["fc1"].attr("in_features") == cfg.spp_features
        assert g["fc1"].out_shape == (4096,)

    def test_head_branches(self):
        g = build_sppnet_graph(TABLE1_MODELS["SPP-Net #3"])
        assert g.predecessors("cls_head") == g.predecessors("box_head")

    def test_no_head_variant(self):
        g = build_sppnet_graph(TABLE1_MODELS["SPP-Net #3"], include_head=False)
        assert "cls_head" not in g.names()

    def test_too_small_input_raises(self):
        with pytest.raises(GraphError):
            build_sppnet_graph(TABLE1_MODELS["SPP-Net #2"], input_size=20)

    def test_larger_input_still_fixed_fc(self):
        cfg = TABLE1_MODELS["SPP-Net #2"]
        g1 = build_sppnet_graph(cfg, input_size=100)
        g2 = build_sppnet_graph(cfg, input_size=220)
        assert g1["fc1"].attr("in_features") == g2["fc1"].attr("in_features")


class TestInceptionBuilder:
    def test_branch_count(self):
        g = build_inception_graph(branches=5, depth=3)
        tails = g.predecessors("concat")
        assert len(tails) == 5
        assert len(g.compute_nodes()) == 5 * 3 * 2 + 1

    def test_validation(self):
        with pytest.raises(GraphError):
            build_inception_graph(branches=1)


class TestCostAnalysis:
    def test_conv_flops_formula(self):
        g = build_sppnet_graph(TABLE1_MODELS["Original SPP-Net"])
        cost = op_cost(g, g["conv1"], batch=1)
        assert cost.flops == 2 * 98 * 98 * 64 * 4 * 3 * 3

    def test_linear_weight_bytes(self):
        g = build_sppnet_graph(TABLE1_MODELS["SPP-Net #2"])
        cost = op_cost(g, g["fc1"], batch=1)
        expected = (256 * 30 * 4096 + 4096) * 4
        assert cost.weight_bytes == expected

    def test_flops_scale_linearly_with_batch(self):
        g = build_sppnet_graph(TABLE1_MODELS["SPP-Net #3"])
        assert total(g, 8, "flops") == pytest.approx(8 * total(g, 1, "flops"))

    def test_weight_bytes_batch_independent(self):
        g = build_sppnet_graph(TABLE1_MODELS["SPP-Net #3"])
        c1 = op_cost(g, g["fc1"], 1).weight_bytes
        c64 = op_cost(g, g["fc1"], 64).weight_bytes
        assert c1 == c64

    def test_bytes_do_not_scale_linearly(self):
        """Weight streaming amortizes: bytes(64) < 64 * bytes(1)."""
        g = build_sppnet_graph(TABLE1_MODELS["SPP-Net #2"])
        assert total(g, 64, "dram_bytes") < 64 * total(g, 1, "dram_bytes")

    def test_activation_bytes_positive_and_scaling(self):
        g = build_sppnet_graph(TABLE1_MODELS["Original SPP-Net"])
        assert activation_bytes(g, 2) == pytest.approx(2 * activation_bytes(g, 1))

    def test_invalid_batch(self):
        g = build_sppnet_graph(TABLE1_MODELS["Original SPP-Net"])
        with pytest.raises(ValueError):
            op_cost(g, g["conv1"], 0)

    def test_weight_bytes_ranking_matches_fc_width(self):
        wb = {name: weight_bytes(build_sppnet_graph(cfg))
              for name, cfg in TABLE1_MODELS.items()}
        assert wb["SPP-Net #2"] > wb["SPP-Net #3"] > wb["Original SPP-Net"]
