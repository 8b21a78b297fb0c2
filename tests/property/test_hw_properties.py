"""Property-based tests for the hardware model invariants.

Every hypothesis kernel is priced by the engine the package ships: a
one-kernel trace through :meth:`ExecutionEngine.run`, read back as
``report.kernels[0]``. The scalar twin in ``tests/hw/reference.py`` only
serves as the differential oracle.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.device import DEVICES, JETSON_NANO, RTX_2080TI
from repro.hw.engine import ExecutionEngine, KernelExecution
from repro.hw.memory import thrash_factor
from repro.trace.events import KernelCategory, KernelEvent
from repro.trace.tracer import Trace
from tests.hw.reference import derive_counters, kernel_latency, stall_breakdown

settings.register_profile("repro-hw", deadline=None, max_examples=60)
settings.load_profile("repro-hw")

kernels = st.builds(
    KernelEvent,
    name=st.just("k"),
    category=st.sampled_from(list(KernelCategory)),
    flops=st.floats(0, 1e12),
    bytes_read=st.floats(0, 1e9),
    bytes_written=st.floats(0, 1e8),
    threads=st.integers(1, 10_000_000),
    coalesced_fraction=st.floats(0.05, 1.0),
    reuse_factor=st.floats(1.0, 64.0),
)

PAPER_DEVICES = (DEVICES["2080ti"], DEVICES["nano"], DEVICES["orin"])
devices = st.sampled_from(PAPER_DEVICES)


def priced(kernel, device) -> KernelExecution:
    """``kernel`` priced alone on ``device`` by the shipped engine."""
    return ExecutionEngine(device).run(Trace(kernels=[kernel])).kernels[0]


class TestLatencyInvariants:
    @given(kernels, devices)
    def test_latency_positive_and_roofline(self, kernel, device):
        lat = priced(kernel, device).latency
        assert lat.total >= device.kernel_fixed_overhead
        assert lat.total == pytest.approx(
            max(lat.compute_time, lat.memory_time) + device.kernel_fixed_overhead)
        assert 0.0 <= lat.occupancy <= 1.0
        assert 0.0 < lat.compute_utilization <= 1.0

    @given(kernels)
    def test_nano_never_faster_than_server(self, kernel):
        assert (priced(kernel, JETSON_NANO).latency.total
                >= priced(kernel, RTX_2080TI).latency.total * 0.99)

    @given(kernels, devices, st.floats(1.5, 16.0))
    def test_more_flops_never_faster(self, kernel, device, factor):
        bigger = dataclasses.replace(kernel, flops=kernel.flops * factor)
        assert (priced(bigger, device).latency.total
                >= priced(kernel, device).latency.total - 1e-12)

    @given(kernels, devices, st.floats(1.0, 16.0), st.floats(1.0, 16.0))
    def test_more_bytes_never_faster(self, kernel, device, read_factor, write_factor):
        bigger = dataclasses.replace(kernel, bytes_read=kernel.bytes_read * read_factor,
                                     bytes_written=kernel.bytes_written * write_factor)
        assert (priced(bigger, device).latency.total
                >= priced(kernel, device).latency.total - 1e-12)


class TestCounterInvariants:
    @given(kernels, devices)
    def test_counters_in_valid_ranges(self, kernel, device):
        c = priced(kernel, device).counters
        for name in ("dram_utilization", "achieved_occupancy", "gld_efficiency",
                     "gst_efficiency", "l1_hit_rate", "l2_hit_rate",
                     "l2_read_hit_rate", "l2_write_hit_rate"):
            value = getattr(c, name)
            assert 0.0 <= value <= 1.0, (name, value)
        assert 0.0 <= c.ipc <= device.issue_width
        assert c.dram_read_bytes >= 0.0
        assert c.fp32_ops == kernel.flops


class TestStallInvariants:
    @given(kernels, devices)
    def test_breakdown_is_distribution(self, kernel, device):
        b = priced(kernel, device).stalls
        assert all(v >= 0 for v in b.values())
        assert sum(b.values()) == pytest.approx(1.0)


class TestEngineMatchesScalarTwin:
    """The differential of ``tests/hw/test_vectorized_equivalence.py`` on
    random kernels instead of the nine workload traces, through both the
    single-device and the broadcast sweep entry points."""

    @given(kernels)
    def test_latency_counters_and_stalls_match(self, kernel):
        sweep = ExecutionEngine(RTX_2080TI).run_sweep(Trace(kernels=[kernel]), PAPER_DEVICES)
        for device, swept in zip(PAPER_DEVICES, sweep):
            lat = kernel_latency(kernel, device)
            counters = derive_counters(kernel, device, lat)
            stalls = stall_breakdown(kernel, device, lat)
            for got in (priced(kernel, device), swept.kernels[0]):
                assert dataclasses.asdict(got.latency) == pytest.approx(
                    dataclasses.asdict(lat), rel=1e-9, abs=1e-300)
                assert dataclasses.asdict(got.counters) == pytest.approx(
                    dataclasses.asdict(counters), rel=1e-9, abs=1e-300)
                assert got.stalls == pytest.approx(stalls, rel=1e-9, abs=1e-300)


class TestThrashInvariants:
    @given(st.floats(0.0, 50.0))
    def test_bounded_and_at_least_one(self, pressure):
        factor = thrash_factor(pressure)
        assert 1.0 <= factor <= 12.0

    @given(st.floats(0.0, 10.0), st.floats(0.0, 10.0))
    def test_monotone(self, p1, p2):
        lo, hi = sorted((p1, p2))
        assert thrash_factor(lo) <= thrash_factor(hi)
