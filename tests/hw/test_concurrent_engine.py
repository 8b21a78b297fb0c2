"""Concurrent-modality execution mode of the engine."""

import pytest

from repro.data.synthetic import random_batch
from repro.hw.device import get_device
from repro.hw.engine import ExecutionEngine
from repro.profiling.profiler import MMBenchProfiler
from repro.trace.events import KernelCategory, KernelEvent
from repro.trace.tracer import Trace
from repro.workloads.registry import get_workload
from tests.hw.reference import kernel_latency, saturated_latency


def k(modality, flops=1e7, threads=5_000, stage="encoder"):
    return KernelEvent(name="k", category=KernelCategory.GEMM, flops=flops,
                       bytes_read=1e5, bytes_written=1e4, threads=threads,
                       stage=stage, modality=modality)


class TestConcurrentEncoder:
    def test_underutilized_streams_overlap(self):
        """Two small streams: wall time ~ the straggler stream, not the sum."""
        trace = Trace(kernels=[k("image", flops=1e8), k("audio", flops=1e6)])
        device = get_device("2080ti")
        serial = ExecutionEngine(device).run(trace)
        concurrent = ExecutionEngine(device, concurrent_modalities=True).run(trace)
        image_alone = kernel_latency(trace.kernels[0], device).total
        assert concurrent.gpu_time < serial.gpu_time
        assert concurrent.gpu_time == pytest.approx(image_alone, rel=0.01)

    def test_saturated_streams_bound_by_throughput(self):
        """Huge streams cannot overlap for free: throughput bound rules."""
        trace = Trace(kernels=[k("image", flops=1e13, threads=10**8),
                               k("audio", flops=1e13, threads=10**8)])
        device = get_device("2080ti")
        concurrent = ExecutionEngine(device, concurrent_modalities=True).run(trace)
        tp_bound = sum(saturated_latency(ev, device) for ev in trace.kernels)
        assert concurrent.gpu_time >= tp_bound * 0.99

    def test_single_sm_device_serializes(self):
        """The Jetson Nano's single SM cannot co-schedule streams."""
        trace = Trace(kernels=[k("image"), k("audio")])
        nano = get_device("nano")
        serial = ExecutionEngine(nano).run(trace)
        concurrent = ExecutionEngine(nano, concurrent_modalities=True).run(trace)
        assert concurrent.gpu_time == pytest.approx(serial.gpu_time)

    def test_unimodal_unaffected(self):
        trace = Trace(kernels=[k("image"), k("image")])
        device = get_device("2080ti")
        serial = ExecutionEngine(device).run(trace)
        concurrent = ExecutionEngine(device, concurrent_modalities=True).run(trace)
        assert concurrent.gpu_time == pytest.approx(serial.gpu_time)

    def test_fusion_and_head_stay_serial(self):
        trace = Trace(kernels=[
            k("image"), k("audio"),
            k(None, stage="fusion"), k(None, stage="head"),
        ])
        device = get_device("2080ti")
        concurrent = ExecutionEngine(device, concurrent_modalities=True).run(trace)
        tail = sum(kernel_latency(ev, device).total
                   for ev in trace.kernels if ev.stage != "encoder")
        assert concurrent.gpu_time > tail

    def test_real_workload_speedup_on_server(self):
        info = get_workload("mujoco_push")
        model = info.build(seed=0)
        batch = random_batch(info.shapes, 16, seed=0)
        trace = MMBenchProfiler("2080ti").capture(model, batch)
        device = get_device("2080ti")
        serial = ExecutionEngine(device).run(trace)
        concurrent = ExecutionEngine(device, concurrent_modalities=True).run(trace)
        # Four encoder streams overlap on an underutilized server.
        assert concurrent.gpu_time < serial.gpu_time
        # Host-side time is unaffected by stream concurrency.
        assert concurrent.host_time == pytest.approx(serial.host_time)
