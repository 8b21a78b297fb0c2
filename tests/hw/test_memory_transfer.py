"""Memory model and host-device transfer model."""

import pytest

from repro.hw.device import JETSON_NANO, JETSON_ORIN, RTX_2080TI
from repro.hw.memory import (
    MemoryBreakdown,
    capacity_pressure,
    thrash_factor,
)
from repro.hw.transfer import h2d_time
from repro.trace.events import KernelCategory, KernelEvent
from repro.trace.tracer import Trace
from tests.hw.reference import d2h_time, host_data_prep_time, memory_breakdown


def k(stage, bytes_written):
    return KernelEvent(name="k", category=KernelCategory.GEMM, flops=1.0,
                       bytes_read=1.0, bytes_written=bytes_written, threads=1,
                       stage=stage)


class TestMemoryBreakdown:
    def test_components(self):
        trace = Trace(kernels=[k("encoder", 100.0), k("encoder", 50.0), k("fusion", 30.0)])
        mem = memory_breakdown(trace, model_bytes=1000.0, input_bytes=200.0)
        assert mem.model == 1000.0
        assert mem.dataset == 200.0
        assert mem.intermediate == 150.0  # encoder stage is the live peak
        assert mem.total == 1350.0

    def test_as_dict(self):
        mem = MemoryBreakdown(1.0, 2.0, 3.0)
        d = mem.as_dict()
        assert d["total"] == 6.0

    def test_empty_trace(self):
        mem = memory_breakdown(Trace(), 10.0, 5.0)
        assert mem.intermediate == 0.0


class TestCapacityPressure:
    def test_discrete_gpu_full_capacity(self):
        mem = MemoryBreakdown(model=5.5e9, dataset=0, intermediate=0)
        assert capacity_pressure(mem, RTX_2080TI) == pytest.approx(0.5)

    def test_unified_memory_reserves_os_share(self):
        mem = MemoryBreakdown(model=1e9, dataset=0, intermediate=0)
        # Nano: usable = 4 GB * 0.75 - 0.5 GB = 2.5 GB.
        assert capacity_pressure(mem, JETSON_NANO) == pytest.approx(0.4)

    def test_orin_has_headroom(self):
        mem = MemoryBreakdown(model=1e9, dataset=0, intermediate=0)
        assert capacity_pressure(mem, JETSON_ORIN) < 0.1


class TestThrashFactor:
    def test_no_penalty_below_knee(self):
        assert thrash_factor(0.5) == 1.0
        assert thrash_factor(0.8) == 1.0

    def test_grows_past_knee(self):
        assert thrash_factor(1.0) > thrash_factor(0.9) > 1.0

    def test_capped(self):
        assert thrash_factor(100.0) == 12.0

    def test_monotonic(self):
        values = [thrash_factor(p) for p in (0.7, 0.85, 1.0, 1.5, 3.0)]
        assert values == sorted(values)


class TestTransfers:
    def test_h2d_scales_with_bytes(self):
        assert h2d_time(1e8, RTX_2080TI) > h2d_time(1e6, RTX_2080TI)

    def test_h2d_has_fixed_latency(self):
        assert h2d_time(0.0, RTX_2080TI) == pytest.approx(RTX_2080TI.transfer_latency)

    def test_unified_memory_skips_copy(self):
        big = h2d_time(1e9, JETSON_NANO)
        small = h2d_time(1.0, JETSON_NANO)
        assert big == small == pytest.approx(JETSON_NANO.transfer_latency)

    def test_d2h_symmetric(self):
        assert d2h_time(1e6, RTX_2080TI) == pytest.approx(h2d_time(1e6, RTX_2080TI))

    def test_negative_bytes_raise(self):
        with pytest.raises(ValueError):
            h2d_time(-1.0, RTX_2080TI)
        with pytest.raises(ValueError):
            host_data_prep_time(-1.0, RTX_2080TI)

    def test_data_prep_slower_on_weak_host(self):
        assert (host_data_prep_time(1e6, JETSON_NANO)
                > host_data_prep_time(1e6, RTX_2080TI))
