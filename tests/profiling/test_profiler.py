"""The three-level profiling pipeline."""

import dataclasses

import pytest

from repro.core.analysis.training import training_batch_sweep
from repro.data.synthetic import random_batch
from repro.hw.device import JETSON_NANO, RTX_2080TI
from repro.profiling.profiler import MMBenchProfiler, price_grid, price_stored
from repro.trace.store import TraceStore
from repro.workloads.registry import get_workload


@pytest.fixture(scope="module")
def profile():
    info = get_workload("avmnist")
    model = info.build(seed=0)
    batch = random_batch(info.shapes, 4, seed=0)
    return MMBenchProfiler("2080ti").profile(model, batch)


class TestProfileResult:
    def test_identity(self, profile):
        assert profile.model_name == "avmnist[concat]"
        assert profile.device is RTX_2080TI
        assert profile.batch_size == 4
        assert profile.modalities == ["image", "audio"]

    def test_algorithm_level(self, profile):
        alg = profile.algorithm_metrics()
        assert alg["parameters"] > 0
        assert alg["parameter_bytes"] == alg["parameters"] * 4
        assert alg["flops"] > 0
        assert alg["flops_per_sample"] == pytest.approx(alg["flops"] / 4)
        assert alg["num_modalities"] == 2

    def test_system_level(self, profile):
        sysm = profile.system_metrics()
        assert sysm["total_time"] == pytest.approx(sysm["gpu_time"] + sysm["cpu_runtime_time"])
        assert 0 < sysm["cpu_runtime_share"] < 1
        assert sysm["peak_memory"] == pytest.approx(
            sysm["memory_model"] + sysm["memory_dataset"] + sysm["memory_intermediate"])

    def test_architecture_level(self, profile):
        arch = profile.architecture_metrics()
        assert set(arch["stage_time"]) == {"encoder", "fusion", "head"}
        assert sum(arch["kernel_categories"].values()) == pytest.approx(1.0)
        assert sum(arch["kernel_size_distribution"].values()) == pytest.approx(1.0)

    def test_throughput(self, profile):
        assert profile.throughput == pytest.approx(4 / profile.total_time)


class TestRepricing:
    def test_same_trace_different_devices(self):
        info = get_workload("avmnist")
        model = info.build(seed=0)
        batch = random_batch(info.shapes, 4, seed=0)
        profiler = MMBenchProfiler("2080ti")
        trace = profiler.capture(model, batch)
        server = profiler.price(model, trace, 4)
        nano = profiler.price(model, trace, 4, device="nano")
        assert nano.device is JETSON_NANO
        assert nano.total_time > server.total_time

    def test_byte_overrides(self):
        info = get_workload("avmnist")
        model = info.build(seed=0)
        batch = random_batch(info.shapes, 4, seed=0)
        profiler = MMBenchProfiler("2080ti")
        trace = profiler.capture(model, batch)
        r = profiler.price(model, trace, 4, model_bytes=123.0, input_bytes=456.0)
        assert r.memory.model == 123.0
        assert r.memory.dataset == 456.0

    def test_capture_leaves_model_in_eval(self):
        info = get_workload("avmnist")
        model = info.build(seed=0)
        batch = random_batch(info.shapes, 2, seed=0)
        MMBenchProfiler("2080ti").capture(model, batch)
        assert not model.training

    def test_captured_entry_prices_the_batch_it_is_given(self):
        """A capture records its batch: b4 is the default, and b8 prices the
        b4 trace batch-scaled by 2 (it once labelled b8 with the b4 price)."""
        stored = TraceStore().get_or_capture("avmnist", batch_size=4, backend="meta")
        profiler = MMBenchProfiler("2080ti")
        assert stored.batch_size == 4
        native = profiler.profile_stored(stored)
        assert native.batch_size == 4
        assert native.total_time == price_stored(stored, ["2080ti"])[0].total_time
        assert native.flops == stored.trace.total_flops
        doubled = profiler.profile_stored(stored, 8)
        assert doubled.batch_size == 8
        assert doubled.total_time == price_stored(stored, ["2080ti"], work=2.0)[0].total_time
        assert doubled.total_time > native.total_time
        assert doubled.flops == 2 * stored.trace.total_flops

    def test_device_object_accepted(self):
        profiler = MMBenchProfiler(RTX_2080TI)
        assert profiler.device is RTX_2080TI


def test_grids_refuse_two_specs_that_share_a_name():
    """Cells are keyed by device name: two different specs under one name
    raise instead of one silently replacing the other."""
    half = dataclasses.replace(RTX_2080TI, dram_bandwidth=308e9)
    store = TraceStore()
    with pytest.raises(ValueError, match="'rtx2080ti'"):
        price_grid(["avmnist"], [8], [RTX_2080TI, half], store=store)
    with pytest.raises(ValueError, match="'rtx2080ti'"):
        training_batch_sweep("avmnist", batches=(2,), devices=[RTX_2080TI, half], store=store)
    assert store.stats["captures"] == 0
    # A repeated name keeps its one cell; a renamed spec gets its own.
    grid = price_grid(["avmnist"], [8], ["2080ti", "2080ti", RTX_2080TI,
                                         dataclasses.replace(half, name="half-bw")], store=store)
    assert list(grid) == [("avmnist", 8, "2080ti"), ("avmnist", 8, "rtx2080ti"),
                          ("avmnist", 8, "half-bw")]
    assert grid[("avmnist", 8, "half-bw")].total_time > grid[("avmnist", 8, "2080ti")].total_time


def test_sweeps_over_no_devices_price_and_capture_nothing():
    store = TraceStore()
    assert price_grid(["avmnist"], [2], [], store=store) == {}
    assert training_batch_sweep("avmnist", batches=(2,), devices=(), store=store) == {}
    assert store.stats["captures"] == store.stats["misses"] == 0
    stored = store.get_or_capture("avmnist", batch_size=2, backend="meta")
    assert price_stored(stored, [], work=2.0) == []
