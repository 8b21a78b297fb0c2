"""Counter derivation: ranges, category effects, aggregation."""

import pytest

from repro.hw.device import JETSON_NANO, RTX_2080TI
from repro.trace.events import KernelCategory, KernelEvent
from tests.hw.reference import aggregate_counters, derive_counters


def make_kernel(**kw):
    base = dict(name="k", category=KernelCategory.GEMM, flops=1e8, bytes_read=1e6,
                bytes_written=1e5, threads=100_000, reuse_factor=8.0,
                coalesced_fraction=0.9)
    base.update(kw)
    return KernelEvent(**base)


class TestRanges:
    @pytest.mark.parametrize("category", list(KernelCategory))
    def test_all_counters_in_range(self, category):
        c = derive_counters(make_kernel(category=category), RTX_2080TI)
        assert 0.0 <= c.dram_utilization <= 1.0
        assert 0.0 <= c.achieved_occupancy <= 1.0
        assert 0.0 <= c.gld_efficiency <= 1.0
        assert 0.0 <= c.gst_efficiency <= 1.0
        assert 0.0 <= c.l1_hit_rate <= 1.0
        assert 0.0 <= c.l2_hit_rate <= 1.0
        assert c.ipc >= 0.0
        assert c.duration > 0.0

    def test_ipc_below_issue_width(self):
        c = derive_counters(make_kernel(flops=1e12), RTX_2080TI)
        assert c.ipc <= RTX_2080TI.issue_width


class TestCategoryEffects:
    def test_gemm_ipc_above_reduce(self):
        gemm = derive_counters(make_kernel(category=KernelCategory.GEMM), RTX_2080TI)
        reduce_ = derive_counters(make_kernel(category=KernelCategory.REDUCE), RTX_2080TI)
        assert gemm.ipc > reduce_.ipc

    def test_memory_bound_kernel_has_high_dram_util(self):
        streaming = make_kernel(category=KernelCategory.ELEWISE, flops=1e4,
                                bytes_read=5e8, bytes_written=5e8, reuse_factor=1.0,
                                threads=10_000_000)
        compute = make_kernel(flops=1e11, bytes_read=1e5, reuse_factor=48.0,
                              threads=10_000_000)
        s = derive_counters(streaming, RTX_2080TI)
        c = derive_counters(compute, RTX_2080TI)
        assert s.dram_utilization > c.dram_utilization

    def test_coalescing_reflected_in_gld(self):
        c = derive_counters(make_kernel(coalesced_fraction=0.4), RTX_2080TI)
        assert c.gld_efficiency == pytest.approx(0.4)

    def test_reuse_reflected_in_l2(self):
        low = derive_counters(make_kernel(reuse_factor=1.0, bytes_read=1e8), RTX_2080TI)
        high = derive_counters(make_kernel(reuse_factor=32.0, bytes_read=1e8), RTX_2080TI)
        assert high.l2_hit_rate > low.l2_hit_rate

    def test_small_working_set_hits_l2(self):
        tiny = derive_counters(make_kernel(bytes_read=1e3, reuse_factor=1.0), RTX_2080TI)
        assert tiny.l2_hit_rate >= 0.60

    def test_fp32_ops_passthrough(self):
        c = derive_counters(make_kernel(flops=123.0), RTX_2080TI)
        assert c.fp32_ops == 123.0

    def test_occupancy_higher_on_nano(self):
        kernel = make_kernel(threads=4096)
        nano = derive_counters(kernel, JETSON_NANO)
        server = derive_counters(kernel, RTX_2080TI)
        assert nano.achieved_occupancy > server.achieved_occupancy


class TestAggregation:
    def test_weighted_average(self):
        a = derive_counters(make_kernel(flops=1e9), RTX_2080TI)
        b = derive_counters(make_kernel(flops=1e5, category=KernelCategory.OTHER), RTX_2080TI)
        agg = aggregate_counters([(a, 3.0), (b, 1.0)])
        assert min(a.ipc, b.ipc) <= agg["ipc"] <= max(a.ipc, b.ipc)
        assert agg["duration"] == pytest.approx(4.0)
        assert agg["fp32_ops"] == pytest.approx(a.fp32_ops + b.fp32_ops)

    def test_empty_aggregation(self):
        assert aggregate_counters([]) == {}
