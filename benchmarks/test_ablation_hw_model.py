"""Ablations of the hardware-model design choices (DESIGN.md).

Each ablation disables one mechanism and shows which paper finding would
be lost, demonstrating that the reproduced shapes come from the modelled
mechanisms rather than from tuning:

* **cache-reuse filtering** -> without it, conv/GEMM kernels count their
  full logical traffic against DRAM and everything becomes memory-bound;
* **host-side fusion round trip** -> without it, the uni/multi
  CPU+Runtime gap of Figure 11 collapses;
* **small-kernel machine-fill ramp** -> without it, batch scaling is
  near-linear and the Figure 12 sublinearity disappears;
* **unified-memory capacity model** -> without it, the Jetson Nano's
  batch-320 latency cliff of Figure 14 disappears.
"""

import pytest

from benchmarks.conftest import print_table
from repro.data.synthetic import random_batch
from repro.hw.device import get_device
from repro.profiling.profiler import MMBenchProfiler
from repro.trace.events import KernelCategory, KernelEvent
from repro.trace.tracer import Trace
from repro.workloads.registry import get_workload
from tests.hw.reference import kernel_latency


def _clone_kernel(k: KernelEvent, **overrides) -> KernelEvent:
    base = dict(
        name=k.name, category=k.category, flops=k.flops, bytes_read=k.bytes_read,
        bytes_written=k.bytes_written, threads=k.threads, stage=k.stage,
        modality=k.modality, coalesced_fraction=k.coalesced_fraction,
        reuse_factor=k.reuse_factor, meta=dict(k.meta),
    )
    base.update(overrides)
    return KernelEvent(**base)


@pytest.fixture(scope="module")
def avmnist_capture():
    info = get_workload("avmnist")
    model = info.build(seed=0)
    batch = random_batch(info.shapes, 32, seed=0)
    profiler = MMBenchProfiler("2080ti")
    return model, profiler.capture(model, batch), profiler


def test_ablation_cache_reuse(benchmark, avmnist_capture):
    model, trace, profiler = avmnist_capture

    def run():
        with_cache = profiler.price(model, trace, 32)
        no_cache = profiler.price(
            model,
            Trace(kernels=[_clone_kernel(k, reuse_factor=1.0) for k in trace.kernels],
                  host_events=list(trace.host_events)),
            32,
        )
        return with_cache, no_cache

    with_cache, no_cache = benchmark(run)
    def memory_bound(r):
        return sum(1 for kx in r.kernels if kx.latency.bound == "memory")

    print_table("Ablation: cache-reuse filtering",
                ["config", "GPU time", "memory-bound kernels"],
                [["with reuse", f"{with_cache.gpu_time*1e6:.1f} us", memory_bound(with_cache)],
                 ["reuse=1", f"{no_cache.gpu_time*1e6:.1f} us", memory_bound(no_cache)]])
    # Without cache filtering the device model charges far more DRAM time.
    assert no_cache.gpu_time > with_cache.gpu_time
    assert memory_bound(no_cache) >= memory_bound(with_cache)


def test_ablation_host_round_trip(benchmark, avmnist_capture):
    model, trace, profiler = avmnist_capture
    info = get_workload("avmnist")
    uni = info.build_unimodal("image", seed=0)
    uni_trace = profiler.capture(uni, random_batch(uni.shapes, 32, seed=0))

    def run():
        multi_full = profiler.price(model, trace, 32)
        uni_full = profiler.price(uni, uni_trace, 32)
        stripped = Trace(kernels=list(trace.kernels), host_events=[])
        uni_stripped = Trace(kernels=list(uni_trace.kernels), host_events=[])
        multi_no_host = profiler.price(model, stripped, 32)
        uni_no_host = profiler.price(uni, uni_stripped, 32)
        return multi_full, uni_full, multi_no_host, uni_no_host

    multi_full, uni_full, multi_no_host, uni_no_host = benchmark(run)
    gap_full = multi_full.cpu_runtime_share - uni_full.cpu_runtime_share
    gap_stripped = multi_no_host.cpu_runtime_share - uni_no_host.cpu_runtime_share
    print_table("Ablation: fusion host round trip (Figure 11 gap)",
                ["config", "uni share", "multi share", "gap"],
                [["full host model", f"{uni_full.cpu_runtime_share:.1%}",
                  f"{multi_full.cpu_runtime_share:.1%}", f"{gap_full:.1%}"],
                 ["host events stripped", f"{uni_no_host.cpu_runtime_share:.1%}",
                  f"{multi_no_host.cpu_runtime_share:.1%}", f"{gap_stripped:.1%}"]])
    assert gap_full > gap_stripped + 0.01


def test_ablation_machine_fill_ramp(benchmark):
    """Saturated kernels scale linearly; the ramp creates the sublinearity."""
    device = get_device("2080ti")

    def run():
        ratios = {}
        for threads, label in ((4_000, "small (ramp active)"),
                               (50_000_000, "saturated (ramp off)")):
            k40 = KernelEvent("k", KernelCategory.GEMM,
                              flops=1e8, bytes_read=1e6, bytes_written=1e5,
                              threads=threads)
            k400 = _clone_kernel(k40, flops=1e9, bytes_read=1e7, bytes_written=1e6,
                                 threads=threads * 10 if threads < 1e7 else threads)
            t40 = kernel_latency(k40, device).total
            t400 = kernel_latency(k400, device).total
            ratios[label] = t400 / t40  # 10x work -> how much more time?
        return ratios

    ratios = benchmark(run)
    print_table("Ablation: machine-fill ramp (time ratio for 10x work)",
                ["regime", "t(10x)/t(1x)"],
                [[k, round(v, 2)] for k, v in ratios.items()])
    # Underutilized kernels absorb 10x work in much less than 10x time;
    # saturated kernels scale nearly linearly.
    assert ratios["small (ramp active)"] < 7.0
    assert ratios["saturated (ramp off)"] > 8.0


def test_ablation_capacity_model(benchmark, avmnist_capture):
    """Without the thrash model, the Figure 14 nano cliff disappears."""
    import dataclasses

    from repro.trace.timeline import scale_trace
    from repro.core.analysis.edge import EDGE_SCALE

    info = get_workload("avmnist")
    model = info.build("slfs", seed=0)
    profiler = MMBenchProfiler("2080ti")
    nano = get_device("nano")
    # The ablated device: identical nano, but capacity effectively infinite.
    unbounded = dataclasses.replace(nano, dram_capacity=1e15)

    def run():
        out = {}
        for batch_size in (160, 320):
            batch = random_batch(model.shapes, batch_size, seed=0)
            trace = scale_trace(profiler.capture(model, batch), EDGE_SCALE)
            kwargs = dict(
                model_bytes=model.parameter_bytes() * EDGE_SCALE,
                input_bytes=model.input_bytes(batch_size) * EDGE_SCALE,
            )
            with_model = profiler.price(model, trace, batch_size, device=nano, **kwargs)
            without = profiler.price(model, trace, batch_size, device=unbounded, **kwargs)
            out[batch_size] = (with_model.total_time / batch_size,
                               without.total_time / batch_size)
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table("Ablation: unified-memory capacity model (per-task time on nano)",
                ["batch", "with capacity model", "without"],
                [[b, f"{w*1e3:.3f} ms", f"{wo*1e3:.3f} ms"] for b, (w, wo) in out.items()])
    with_160, without_160 = out[160]
    with_320, without_320 = out[320]
    assert with_320 > with_160  # the cliff
    assert without_320 <= without_160 * 1.01  # no cliff without the model
