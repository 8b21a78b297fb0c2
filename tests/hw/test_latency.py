"""Roofline latency model: bounds, monotonicity, device ordering."""

import pytest

from repro.hw.device import JETSON_NANO, JETSON_ORIN, RTX_2080TI
from repro.trace.events import KernelCategory, KernelEvent
from tests.hw.reference import dram_traffic, kernel_latency, machine_fill


def make_kernel(flops=1e6, bytes_read=1e5, bytes_written=1e4, threads=100_000,
                category=KernelCategory.GEMM, reuse=8.0, coalesced=1.0):
    return KernelEvent(name="k", category=category, flops=flops, bytes_read=bytes_read,
                       bytes_written=bytes_written, threads=threads,
                       reuse_factor=reuse, coalesced_fraction=coalesced)


class TestLatencyBasics:
    def test_positive_and_bounded_below_by_overhead(self):
        lat = kernel_latency(make_kernel(), RTX_2080TI)
        assert lat.total >= RTX_2080TI.kernel_fixed_overhead

    def test_roofline_max(self):
        lat = kernel_latency(make_kernel(), RTX_2080TI)
        assert lat.total == pytest.approx(
            max(lat.compute_time, lat.memory_time) + lat.fixed_overhead
        )

    def test_bound_labels(self):
        compute_heavy = make_kernel(flops=1e10, bytes_read=1e3, reuse=48)
        memory_heavy = make_kernel(flops=1e3, bytes_read=1e8, reuse=1, category=KernelCategory.ELEWISE)
        assert kernel_latency(compute_heavy, RTX_2080TI).bound == "compute"
        assert kernel_latency(memory_heavy, RTX_2080TI).bound == "memory"

    def test_monotonic_in_flops(self):
        small = kernel_latency(make_kernel(flops=1e8), RTX_2080TI)
        large = kernel_latency(make_kernel(flops=1e10), RTX_2080TI)
        assert large.total > small.total

    def test_monotonic_in_bytes(self):
        small = kernel_latency(make_kernel(flops=0, bytes_read=1e6), RTX_2080TI)
        large = kernel_latency(make_kernel(flops=0, bytes_read=1e9), RTX_2080TI)
        assert large.total > small.total

    def test_zero_work_costs_overhead_only(self):
        lat = kernel_latency(make_kernel(flops=0, bytes_read=0, bytes_written=0), RTX_2080TI)
        assert lat.total == pytest.approx(RTX_2080TI.kernel_fixed_overhead)


class TestDeviceOrdering:
    def test_nano_slower_than_server(self):
        kernel = make_kernel(flops=1e9, bytes_read=1e7)
        assert kernel_latency(kernel, JETSON_NANO).total > kernel_latency(kernel, RTX_2080TI).total

    def test_orin_between(self):
        kernel = make_kernel(flops=1e9, bytes_read=1e7)
        nano = kernel_latency(kernel, JETSON_NANO).total
        orin = kernel_latency(kernel, JETSON_ORIN).total
        server = kernel_latency(kernel, RTX_2080TI).total
        assert server < orin < nano


class TestSmallKernelInefficiency:
    def test_tiny_kernel_underutilizes_big_gpu(self):
        tiny = make_kernel(threads=512)
        assert machine_fill(tiny, RTX_2080TI) < 0.05

    def test_same_kernel_fills_nano(self):
        tiny = make_kernel(threads=512)
        assert machine_fill(tiny, JETSON_NANO) > machine_fill(tiny, RTX_2080TI)

    def test_batch_scaling_superlinear_throughput(self):
        # 10x the work in one kernel should take well under 10x the time on
        # an underutilized device — the Figure 12 mechanism.
        small = make_kernel(flops=1e7, threads=4_000)
        big = make_kernel(flops=1e8, bytes_read=1e6, threads=40_000)
        t_small = kernel_latency(small, RTX_2080TI).total
        t_big = kernel_latency(big, RTX_2080TI).total
        assert t_big < 10 * t_small


class TestDramTraffic:
    def test_reuse_filters_reads(self):
        no_reuse = make_kernel(reuse=1.0, bytes_read=1e8)
        high_reuse = make_kernel(reuse=32.0, bytes_read=1e8)
        assert dram_traffic(high_reuse, RTX_2080TI) < dram_traffic(no_reuse, RTX_2080TI)

    def test_writes_pass_through(self):
        kernel = make_kernel(bytes_read=0.0, bytes_written=1e6, reuse=32.0)
        assert dram_traffic(kernel, RTX_2080TI) == pytest.approx(1e6)

    def test_reuse_capped(self):
        absurd = make_kernel(reuse=1e9, bytes_read=1e9)
        assert dram_traffic(absurd, RTX_2080TI) > 1e9 / 100.0

    def test_coalescing_slows_memory(self):
        aligned = make_kernel(flops=0, bytes_read=1e8, coalesced=1.0)
        scattered = make_kernel(flops=0, bytes_read=1e8, coalesced=0.2)
        assert (kernel_latency(scattered, RTX_2080TI).total
                > kernel_latency(aligned, RTX_2080TI).total)
