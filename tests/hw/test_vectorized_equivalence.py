"""Golden equivalence: vectorized engine == scalar reference, everywhere.

The columnar :class:`~repro.hw.engine.ExecutionEngine`, the package's only
pricing code, must reproduce the scalar twin in ``tests/hw/reference.py``
to 1e-9 relative tolerance on *every* ``ExecutionReport`` field — scalars,
per-stage / per-modality / per-category aggregations, counters, stalls,
histograms and per-kernel records — across all nine registry workloads
and the three paper device models. Both read the same per-category tables
from ``repro.hw``, so a model change edits the vectorized functions and
the twin together and keeps this suite green.
"""

import numpy as np
import pytest

from repro.hw.device import DEVICES, get_device
from repro.hw.engine import ExecutionEngine
from tests.hw.reference import ScalarExecutionEngine
from repro.trace.store import TraceStore
from repro.workloads.registry import list_workloads

REL = 1e-9
WORKLOADS = list_workloads()
DEVICE_NAMES = ("2080ti", "orin", "nano")
BATCH_SIZE = 8


@pytest.fixture(scope="module")
def traces():
    """One device-independent stored trace per registry workload."""
    store = TraceStore()
    return {
        name: store.get_or_capture(name, batch_size=BATCH_SIZE, backend="meta")
        for name in WORKLOADS
    }


def _assert_close(got, want, where: str):
    assert got == pytest.approx(want, rel=REL, abs=1e-300), where


def _assert_dict_close(got: dict, want: dict, where: str):
    assert set(got) == set(want), where
    for key, value in want.items():
        _assert_close(got[key], value, f"{where}[{key!r}]")


def _assert_nested_close(got: dict, want: dict, where: str):
    assert set(got) == set(want), where
    for key, inner in want.items():
        _assert_dict_close(got[key], inner, f"{where}[{key!r}]")


SCALAR_FIELDS = (
    "gpu_time", "host_time", "launch_time", "transfer_time", "data_prep_time",
    "sync_time", "memory_pressure", "slowdown", "total_time", "cpu_runtime_share",
)


@pytest.mark.parametrize("device_name", DEVICE_NAMES)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_report_fields_match_reference(traces, workload, device_name):
    stored = traces[workload]
    device = get_device(device_name)
    kwargs = dict(model_bytes=stored.parameter_bytes, input_bytes=stored.input_bytes)
    vec = ExecutionEngine(device).run(stored.trace, **kwargs)
    ref = ScalarExecutionEngine(device).run(stored.trace, **kwargs)

    for field in SCALAR_FIELDS:
        _assert_close(getattr(vec, field), getattr(ref, field),
                      f"{workload}/{device_name}.{field}")
    for field in ("model", "dataset", "intermediate", "total"):
        _assert_close(getattr(vec.memory, field), getattr(ref.memory, field),
                      f"{workload}/{device_name}.memory.{field}")

    _assert_dict_close(vec.stage_time(), ref.stage_time(),
                       f"{workload}/{device_name}.stage_time")
    _assert_nested_close(vec.stage_counters(), ref.stage_counters(),
                         f"{workload}/{device_name}.stage_counters")
    _assert_nested_close(vec.stage_stalls(), ref.stage_stalls(),
                         f"{workload}/{device_name}.stage_stalls")
    _assert_dict_close(vec.overall_stalls(), ref.overall_stalls(),
                       f"{workload}/{device_name}.overall_stalls")
    _assert_dict_close(vec.category_time_breakdown(), ref.category_time_breakdown(),
                       f"{workload}/{device_name}.category_time_breakdown")
    for stage in stored.trace.stages():
        _assert_dict_close(vec.category_time_breakdown(stage),
                           ref.category_time_breakdown(stage),
                           f"{workload}/{device_name}.category[{stage}]")
    _assert_dict_close(vec.modality_time(), ref.modality_time(),
                       f"{workload}/{device_name}.modality_time")
    _assert_close(vec.modality_imbalance(), ref.modality_imbalance(),
                  f"{workload}/{device_name}.modality_imbalance")
    _assert_dict_close(vec.kernel_size_distribution(), ref.kernel_size_distribution(),
                       f"{workload}/{device_name}.kernel_size_distribution")


@pytest.mark.parametrize("device_name", DEVICE_NAMES)
def test_per_kernel_records_match_reference(traces, device_name):
    stored = traces["avmnist"]
    device = get_device(device_name)
    vec = ExecutionEngine(device).run(stored.trace)
    ref = ScalarExecutionEngine(device).run(stored.trace)
    assert len(vec.kernels) == len(ref.kernels) == len(stored.trace.kernels)
    for kv, kr in zip(vec.kernels, ref.kernels):
        assert kv.event.name == kr.event.name
        _assert_close(kv.duration, kr.duration, "kernel.duration")
        for field in ("total", "compute_time", "memory_time", "fixed_overhead",
                      "dram_bytes", "compute_utilization", "occupancy"):
            _assert_close(getattr(kv.latency, field), getattr(kr.latency, field),
                          f"latency.{field}")
        for field in ("duration", "dram_utilization", "achieved_occupancy", "ipc",
                      "gld_efficiency", "gst_efficiency", "l1_hit_rate",
                      "l2_hit_rate", "l2_read_hit_rate", "l2_write_hit_rate",
                      "fp32_ops", "dram_read_bytes", "read_transactions_per_second"):
            _assert_close(getattr(kv.counters, field), getattr(kr.counters, field),
                          f"counters.{field}")
        _assert_dict_close(kv.stalls, kr.stalls, "kernel.stalls")


@pytest.mark.parametrize("device_name", DEVICE_NAMES)
@pytest.mark.parametrize("workload", ("avmnist", "mujoco_push"))
def test_concurrent_modalities_match_reference(traces, workload, device_name):
    stored = traces[workload]
    device = get_device(device_name)
    vec = ExecutionEngine(device, concurrent_modalities=True).run(stored.trace)
    ref = ScalarExecutionEngine(device, concurrent_modalities=True).run(stored.trace)
    _assert_close(vec.gpu_time, ref.gpu_time, f"{workload}/{device_name}.gpu_time")
    _assert_close(vec.host_time, ref.host_time, f"{workload}/{device_name}.host_time")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_sweep_matches_per_device_runs(traces, workload):
    """One broadcasted pass == D independent single-device runs, exactly."""
    stored = traces[workload]
    kwargs = dict(model_bytes=stored.parameter_bytes, input_bytes=stored.input_bytes)
    engine = ExecutionEngine(get_device("2080ti"))
    sweep = engine.run_sweep(stored.trace, DEVICE_NAMES, **kwargs)
    assert [r.device.name for r in sweep] == [get_device(d).name for d in DEVICE_NAMES]
    for report, device_name in zip(sweep, DEVICE_NAMES):
        single = ExecutionEngine(get_device(device_name)).run(stored.trace, **kwargs)
        assert report.total_time == single.total_time  # bit-exact
        assert np.array_equal(report.durations, single.durations)
        assert report.stage_time() == single.stage_time()
        assert report.overall_stalls() == single.overall_stalls()


def test_thrashed_run_matches_reference(traces):
    """Over-capacity slowdown path: scaled latencies must agree too."""
    stored = traces["avmnist"]
    nano = get_device("nano")
    kwargs = dict(model_bytes=2.9e9, input_bytes=1e8)
    vec = ExecutionEngine(nano).run(stored.trace, **kwargs)
    ref = ScalarExecutionEngine(nano).run(stored.trace, **kwargs)
    assert vec.slowdown > 1.0
    _assert_close(vec.gpu_time, ref.gpu_time, "thrashed.gpu_time")
    _assert_close(vec.total_time, ref.total_time, "thrashed.total_time")
    _assert_close(vec.kernels[0].duration, ref.kernels[0].duration,
                  "thrashed.kernel0.duration")


def test_all_registry_devices_priced():
    """Every canonical device spec can price a trace (no lookup drift)."""
    store = TraceStore()
    stored = store.get_or_capture("avmnist", batch_size=2, backend="meta")
    for spec in {d.name: d for d in DEVICES.values()}.values():
        report = ExecutionEngine(spec).run(stored.trace)
        assert report.total_time > 0
