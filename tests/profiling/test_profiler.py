"""Nsight-like profiler: session aggregation and paper-shape checks."""

import pytest

from repro.arch import TABLE1_MODELS
from repro.graph import build_sppnet_graph
from repro.ios import dp_schedule
from repro.profiling import (
    TABLE3_CATEGORIES,
    display_name,
    format_api_table,
    format_kernel_table,
    format_memops,
    format_report,
    profile_session,
)


@pytest.fixture(scope="module")
def graph():
    return build_sppnet_graph(TABLE1_MODELS["SPP-Net #2"])


@pytest.fixture(scope="module")
def report_b1(graph):
    return profile_session(graph, dp_schedule(graph, 1), 1, iterations=50, warmup=2)


@pytest.fixture(scope="module")
def report_b64(graph):
    return profile_session(graph, dp_schedule(graph, 64), 64, iterations=50, warmup=2)


class TestAggregation:
    def test_api_shares_sum_to_one(self, report_b1):
        assert sum(s.share for s in report_b1.api) == pytest.approx(1.0)

    def test_kernel_shares_sum_to_one(self, report_b1, report_b64):
        for report in (report_b1, report_b64):
            assert sum(s.share for s in report.kernels) == pytest.approx(1.0)

    def test_api_sorted_descending(self, report_b1):
        times = [s.total_us for s in report_b1.api]
        assert times == sorted(times, reverse=True)

    def test_table3_row_keys(self, report_b1):
        row = report_b1.table3_row()
        assert set(row) == set(TABLE3_CATEGORIES)
        assert all(0 <= v <= 100 for v in row.values())

    def test_unknown_share_zero(self, report_b1):
        assert report_b1.api_share("cudaNotARealApi") == 0.0
        assert report_b1.kernel_share("nonexistent") == 0.0

    def test_memops_counts(self, report_b1):
        assert report_b1.memops.count > 0
        assert report_b1.memops.total_bytes > 0
        assert report_b1.memops.per_image_ns > 0

    def test_iterations_validated(self, graph):
        with pytest.raises(ValueError):
            profile_session(graph, dp_schedule(graph, 1), 1, iterations=0)


class TestPaperShapes:
    def test_libload_dominates_at_batch1(self, report_b1):
        """Figure 8, batch 1: cuLibraryLoadData ~80%, sync tiny."""
        lib = report_b1.api_share("cuLibraryLoadData")
        sync = report_b1.api_share("cudaDeviceSynchronize")
        assert lib > 0.6
        assert sync < lib

    def test_sync_grows_with_batch(self, report_b1, report_b64):
        assert (report_b64.api_share("cudaDeviceSynchronize")
                > report_b1.api_share("cudaDeviceSynchronize"))

    def test_matmul_dominates_kernels_at_batch1(self, report_b1):
        row = report_b1.table3_row()
        assert row["matmul"] > row["conv"]
        assert row["matmul"] > row["pooling"]

    def test_conv_dominates_kernels_at_batch64(self, report_b64):
        row = report_b64.table3_row()
        assert row["conv"] > row["matmul"]
        assert row["conv"] > row["pooling"]

    def test_memops_per_image_amortizes(self, report_b1, report_b64):
        """Figure 7: per-image memop timing falls with batch."""
        assert report_b64.memops.per_image_ns < report_b1.memops.per_image_ns

    def test_memory_far_below_capacity(self, report_b64):
        assert report_b64.memory_utilization < 0.05


class TestFormatting:
    def test_full_report_sections(self, report_b1):
        text = format_report(report_b1)
        assert "CUDA API Statistics" in text
        assert "CUDA Kernel Statistics" in text
        assert "CUDA Memory Operation Statistics" in text
        assert "cuLibraryLoadData" in text

    def test_api_table_top_limits_rows(self, report_b1):
        text = format_api_table(report_b1, top=2)
        assert len(text.splitlines()) == 3 + 2

    def test_kernel_table_display_names(self, report_b1):
        text = format_kernel_table(report_b1)
        assert "Matrix Multiplication" in text

    def test_memops_block(self, report_b64):
        text = format_memops(report_b64)
        assert "GiB" in text and "per-image" in text

    def test_display_name_fallback(self):
        assert display_name("matmul") == "Matrix Multiplication"
        assert display_name("weird") == "weird"
