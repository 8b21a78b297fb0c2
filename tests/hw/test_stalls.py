"""Stall attribution: normalization and the edge-vs-server shift."""

import pytest

from repro.hw.device import JETSON_NANO, RTX_2080TI
from repro.hw.vectorized import STALL_REASONS
from repro.trace.events import KernelCategory, KernelEvent
from tests.hw.reference import aggregate_stalls, stall_breakdown


def make_kernel(**kw):
    base = dict(name="k", category=KernelCategory.GEMM, flops=1e8, bytes_read=1e6,
                bytes_written=1e5, threads=100_000, reuse_factor=8.0)
    base.update(kw)
    return KernelEvent(**base)


class TestNormalization:
    @pytest.mark.parametrize("category", list(KernelCategory))
    def test_sums_to_one(self, category):
        b = stall_breakdown(make_kernel(category=category), RTX_2080TI)
        assert sum(b.values()) == pytest.approx(1.0)
        assert set(b) == set(STALL_REASONS)
        assert all(v >= 0 for v in b.values())

    def test_aggregate_sums_to_one(self):
        b1 = stall_breakdown(make_kernel(), RTX_2080TI)
        b2 = stall_breakdown(make_kernel(category=KernelCategory.ELEWISE), RTX_2080TI)
        agg = aggregate_stalls([(b1, 2.0), (b2, 1.0)])
        assert sum(agg.values()) == pytest.approx(1.0)

    def test_aggregate_empty(self):
        agg = aggregate_stalls([])
        assert all(v == 0.0 for v in agg.values())


class TestDeviceShift:
    """The Figure-15 mechanism: stall mix shifts between platforms."""

    def test_exec_and_inst_grow_on_nano(self):
        kernel = make_kernel(flops=1e9, bytes_read=1e6)
        nano = stall_breakdown(kernel, JETSON_NANO)
        server = stall_breakdown(kernel, RTX_2080TI)
        assert nano["Exec"] > server["Exec"]
        assert nano["Inst"] > server["Inst"]

    def test_mem_cache_dominate_on_server(self):
        kernel = make_kernel(flops=1e7, bytes_read=1e8, category=KernelCategory.ELEWISE,
                             reuse_factor=2.0)
        server = stall_breakdown(kernel, RTX_2080TI)
        assert server["Mem"] + server["Cache"] > server["Exec"] + server["Inst"]


class TestCategoryEffects:
    def test_reduce_has_more_sync_than_elewise(self):
        reduce_ = stall_breakdown(make_kernel(category=KernelCategory.REDUCE), RTX_2080TI)
        elewise = stall_breakdown(make_kernel(category=KernelCategory.ELEWISE), RTX_2080TI)
        assert reduce_["Sync"] > elewise["Sync"]

    def test_reuse_moves_mem_to_cache(self):
        streaming = stall_breakdown(make_kernel(reuse_factor=1.0, flops=1e4,
                                                bytes_read=1e8), RTX_2080TI)
        cached = stall_breakdown(make_kernel(reuse_factor=20.0, flops=1e4,
                                             bytes_read=1e8), RTX_2080TI)
        assert cached["Cache"] > streaming["Cache"]
        assert cached["Mem"] < streaming["Mem"]
