"""Stream-level schedules on a partitioned device, and their agreement
with the closed-form Sec. 4.3.3 idle-resource analysis."""

import numpy as np
import pytest

from repro.core.analysis.concurrency import analyze_concurrency
from repro.hw.device import get_device
from repro.hw.engine import ExecutionEngine
from repro.hw.streams import (
    StreamLoad,
    StreamScheduler,
    modality_schedule,
    modality_streams,
    tenant_schedule,
)
from repro.trace.events import KernelCategory, KernelEvent
from repro.trace.store import TraceStore
from repro.trace.tracer import Trace
from repro.workloads.registry import list_workloads
from tests.hw.reference import analytic_concurrency


def k(modality, flops=1e7, stage="encoder"):
    return KernelEvent(name="k", category=KernelCategory.GEMM, flops=flops,
                       bytes_read=1e5, bytes_written=1e4, threads=5_000,
                       stage=stage, modality=modality)


@pytest.fixture(scope="module")
def store():
    return TraceStore()


def priced_report(store, workload, batch_size=16, device="2080ti"):
    stored = store.get_or_capture(workload, batch_size=batch_size, backend="meta")
    return ExecutionEngine(get_device(device)).run(
        stored.trace, model_bytes=stored.parameter_bytes,
        input_bytes=stored.input_bytes)


class TestScheduler:
    def test_timeline_is_back_to_back_per_stream(self):
        sched = StreamScheduler("2080ti").schedule([
            StreamLoad("a", np.array([1.0, 2.0, 3.0]), share=0.5),
            StreamLoad("b", np.array([4.0]), share=0.5),
        ])
        a = sched.streams["a"]  # half speed: each kernel takes twice its time
        assert a.start.tolist() == [0.0, 2.0, 6.0]
        assert a.end.tolist() == [2.0, 6.0, 12.0]
        assert a.busy_until == 12.0
        assert sched.makespan == 12.0
        assert sched.straggler == "a"
        assert sched.streams["b"].idle_window(sched.makespan) == (8.0, 12.0)

    def test_share_scales_the_effective_roofline(self):
        full = StreamScheduler("2080ti").schedule(
            [StreamLoad("a", np.array([2.0]), share=1.0)])
        half = StreamScheduler("2080ti").schedule(
            [StreamLoad("a", np.array([2.0]), share=0.5)])
        assert half.streams["a"].busy_until == pytest.approx(
            2 * full.streams["a"].busy_until)
        # Native time divides the scaling back out.
        assert half.streams["a"].native_time == pytest.approx(2.0)

    def test_idle_geometry_equal_shares(self):
        # Two streams, times 1 and 3, half the device each: the short
        # stream's half sits idle for 2 of the 6-second (scaled) window.
        sched = StreamScheduler("2080ti").schedule([
            StreamLoad("short", np.array([1.0]), share=0.5),
            StreamLoad("long", np.array([3.0]), share=0.5),
        ])
        assert sched.makespan == pytest.approx(6.0)
        assert sched.idle_resource_fraction() == pytest.approx((3.0 - 1.0) / (2 * 3.0))
        assert sched.idle_window_fraction() == pytest.approx(2.0 / 3.0)
        assert sched.serial_time() == pytest.approx(4.0)
        assert sched.native_makespan() == pytest.approx(3.0)
        assert sched.concurrency_speedup() == pytest.approx(4.0 / 3.0)

    def test_validation(self):
        scheduler = StreamScheduler("2080ti")
        with pytest.raises(ValueError, match="at least one"):
            scheduler.schedule([])
        with pytest.raises(ValueError, match="duplicate"):
            scheduler.schedule([StreamLoad("a", np.ones(1), 0.5),
                                StreamLoad("a", np.ones(1), 0.5)])
        with pytest.raises(ValueError, match="oversubscribe"):
            scheduler.schedule([StreamLoad("a", np.ones(1), 0.8),
                                StreamLoad("b", np.ones(1), 0.8)])
        with pytest.raises(ValueError, match="share"):
            StreamLoad("a", np.ones(1), share=0.0)


class TestModalityStreams:
    def test_splits_encoder_kernels_by_modality(self):
        trace = Trace(kernels=[k("image"), k("audio"), k("image"),
                               k(None, stage="fusion")])
        cols = trace.columns()
        durations = np.array([1.0, 2.0, 3.0, 99.0])
        loads = modality_streams(cols, durations)
        assert [load.name for load in loads] == ["image", "audio"]
        image = loads[0]
        assert image.durations.tolist() == [1.0, 3.0]
        assert image.share == pytest.approx(0.5)

    def test_launch_overhead_folds_into_each_kernel(self):
        trace = Trace(kernels=[k("image"), k("image")])
        loads = modality_streams(trace.columns(), np.array([1.0, 2.0]),
                                 launch_overhead=0.5)
        assert loads[0].native_time == pytest.approx(4.0)

    def test_custom_shares_and_missing_share(self):
        trace = Trace(kernels=[k("image"), k("audio")])
        cols = trace.columns()
        loads = modality_streams(cols, np.array([1.0, 1.0]),
                                 shares={"image": 0.7, "audio": 0.3})
        assert {load.name: load.share
                for load in loads} == {"image": 0.7, "audio": 0.3}
        with pytest.raises(KeyError, match="audio"):
            modality_streams(cols, np.array([1.0, 1.0]), shares={"image": 1.0})

    def test_no_encoder_stage_rejected(self):
        trace = Trace(kernels=[k(None, stage="head")])
        with pytest.raises(ValueError, match="no 'encoder' stage"):
            modality_streams(trace.columns(), np.array([1.0]))


class TestReportSchedules:
    def test_stream_schedule_matches_modality_time(self, store):
        report = priced_report(store, "mujoco_push")
        sched = report.stream_schedule()
        native = sched.native_times()
        times = report.modality_time()
        assert set(native) == set(times)
        for mod in times:
            assert native[mod] == pytest.approx(times[mod], rel=1e-9)

    def test_schedule_trace_entry_point(self, store):
        stored = store.get_or_capture("avmnist", batch_size=8, backend="meta")
        sched = StreamScheduler("2080ti").schedule_trace(stored.trace)
        assert set(sched.streams) == {"image", "audio"}
        assert sched.makespan > 0

    def test_tenant_schedule_overlaps_two_workloads(self, store):
        reports = {"avmnist": priced_report(store, "avmnist"),
                   "transfuser": priced_report(store, "transfuser")}
        sched = tenant_schedule(reports)
        assert set(sched.streams) == {"avmnist", "transfuser"}
        # Each tenant's native time covers its whole trace.
        for name, report in reports.items():
            overhead = report.device.kernel_launch_overhead * report.slowdown
            expect = float(report.durations.sum()) + overhead * report.columns.n
            assert sched.native_times()[name] == pytest.approx(expect, rel=1e-9)

    def test_tenant_schedule_rejects_mixed_devices(self, store):
        reports = {"a": priced_report(store, "avmnist", device="2080ti"),
                   "b": priced_report(store, "avmnist", device="nano")}
        with pytest.raises(ValueError, match="devices"):
            tenant_schedule(reports)


class TestConcurrencyAgreement:
    """The acceptance criterion: the schedule-derived analysis reproduces
    the closed-form idle-resource numbers on every multi-modal workload."""

    FIELDS = ("straggler_ratio", "serial_encoder_time",
              "concurrent_encoder_time", "concurrency_speedup",
              "idle_resource_fraction", "idle_window_fraction",
              "idle_stream_share")

    @pytest.mark.parametrize("workload", list_workloads())
    def test_schedule_reproduces_analytic(self, store, workload):
        report = priced_report(store, workload)
        from_schedule = analyze_concurrency(report)
        closed_form = analytic_concurrency(report.modality_time())
        assert from_schedule.straggler == closed_form.straggler
        for mod, t in closed_form.modality_times.items():
            assert from_schedule.modality_times[mod] == pytest.approx(t, rel=1e-9)
        for name in self.FIELDS:
            assert getattr(from_schedule, name) == pytest.approx(
                getattr(closed_form, name), rel=1e-9), name

    def test_equal_share_schedule_backs_the_analysis(self, store):
        report = priced_report(store, "mujoco_push")
        sched = modality_schedule(report)
        m = len(sched.streams)
        assert all(w.share == pytest.approx(1.0 / m)
                   for w in sched.streams.values())
        analysis = analyze_concurrency(report)
        assert analysis.idle_resource_fraction == pytest.approx(
            sched.idle_resource_fraction())
