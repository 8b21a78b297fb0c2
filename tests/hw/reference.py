"""Scalar twin of the execution engine: the reference the tests pin it to.

This is the original, pre-columnar pricing path: one :func:`kernel_latency`
/ :func:`derive_counters` / :func:`stall_breakdown` call per kernel event,
and pure-Python dict loops for every aggregation. It prices with the same
per-category tables the shipped model uses (imported from ``repro.hw``,
never copied), so the two spellings differ only in how they evaluate the
model:

* ``tests/hw/test_vectorized_equivalence.py`` asserts the vectorized
  :class:`~repro.hw.engine.ExecutionEngine` matches this implementation to
  1e-9 relative tolerance on every report field, and
  ``tests/property/test_hw_properties.py`` does the same per kernel on
  random kernels;
* ``benchmarks/bench_engine.py`` measures the vectorized/scalar speedup
  against it, and the CI gate fails if that ratio regresses;
* ``tests/hw/test_streams.py`` pins the schedule-derived concurrency
  analysis to the closed-form :func:`analytic_concurrency` kept here.

A model change edits the vectorized functions and this twin together. Do
not "optimize" this module: its value is being the slow, obviously correct
spelling of the model.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.core.analysis.concurrency import ConcurrencyAnalysis
from repro.hw.counters import _ISSUE_EFFICIENCY, _SECTOR_BYTES, KernelCounters
from repro.hw.device import DeviceSpec
from repro.hw.engine import KERNEL_SIZE_BINS
from repro.hw.latency import (
    _COMPUTE_EFFICIENCY,
    _MAX_CACHE_REUSE,
    _MEM_EFFICIENCY_CEILING,
    LatencyBreakdown,
)
from repro.hw.memory import MemoryBreakdown, capacity_pressure, thrash_factor
from repro.hw.stalls import _SYNC_WEIGHT, STALL_REASONS
from repro.hw.transfer import h2d_time
from repro.trace.events import HostEvent, HostOpKind, KernelCategory, KernelEvent
from repro.trace.tracer import Trace

# -- roofline latency ------------------------------------------------------------


def dram_traffic(kernel: KernelEvent, device: DeviceSpec) -> float:
    """Estimate DRAM bytes after cache filtering of the logical traffic.

    Reads are filtered by the reuse factor (bounded by what the L2 could
    plausibly capture); writes mostly go through to DRAM.
    """
    reuse = min(max(kernel.reuse_factor, 1.0), _MAX_CACHE_REUSE)
    # A tiny working set that fits in L2 entirely gets extra filtering.
    if kernel.bytes_read > 0 and kernel.bytes_read < device.l2_bytes:
        reuse = max(reuse, 2.0)
    return kernel.bytes_read / reuse + kernel.bytes_written


def machine_fill(kernel: KernelEvent, device: DeviceSpec) -> float:
    """Fraction of the device the kernel's parallelism can occupy (0..1].

    A saturating ramp in the number of threads relative to the device's
    resident-thread capacity. Small kernels on big devices fill little of
    the machine; the same kernel on a Jetson Nano fills all of it.
    """
    capacity = device.max_resident_threads
    # Half-saturation at one full wave of threads.
    return kernel.threads / (kernel.threads + capacity)


def saturated_latency(kernel: KernelEvent, device: DeviceSpec) -> float:
    """Kernel time at full machine utilization (throughput bound).

    The time the device needs to chew the kernel's work when the machine is
    already saturated by co-running work — no fill derating and no
    per-kernel ramp, just raw work over peak rates. Used by the
    concurrent-modality makespan model.
    """
    ceiling = _COMPUTE_EFFICIENCY[kernel.category]
    compute = kernel.flops / (device.peak_fp32_flops * ceiling)
    memory = dram_traffic(kernel, device) / (device.dram_bandwidth * _MEM_EFFICIENCY_CEILING)
    return max(compute, memory)


def kernel_latency(kernel: KernelEvent, device: DeviceSpec) -> LatencyBreakdown:
    """Latency of one kernel on one device."""
    fill = machine_fill(kernel, device)
    occupancy = min(1.0, kernel.threads / device.max_resident_threads)

    ceiling = _COMPUTE_EFFICIENCY[kernel.category]
    effective_flops = device.peak_fp32_flops * ceiling * max(fill, 1e-6)
    compute_time = kernel.flops / effective_flops if kernel.flops > 0 else 0.0

    bytes_dram = dram_traffic(kernel, device)
    # Memory pipelines saturate with less parallelism than the ALUs do, so
    # the bandwidth ramp rises faster than the compute ramp and has a floor.
    mem_fill = min(1.0, 0.25 + 0.75 * min(fill * 8.0, 1.0))
    effective_bw = (
        device.dram_bandwidth
        * _MEM_EFFICIENCY_CEILING
        * max(kernel.coalesced_fraction, 0.05)
        * max(mem_fill, 0.25)
    )
    memory_time = bytes_dram / effective_bw if bytes_dram > 0 else 0.0

    total = max(compute_time, memory_time) + device.kernel_fixed_overhead
    return LatencyBreakdown(
        total=total,
        compute_time=compute_time,
        memory_time=memory_time,
        fixed_overhead=device.kernel_fixed_overhead,
        dram_bytes=bytes_dram,
        compute_utilization=fill,
        occupancy=occupancy,
    )


# -- profiler counters -----------------------------------------------------------


def derive_counters(
    kernel: KernelEvent, device: DeviceSpec, latency: LatencyBreakdown | None = None
) -> KernelCounters:
    """Compute the counter set for ``kernel`` executed on ``device``."""
    lat = latency or kernel_latency(kernel, device)
    duration = lat.total

    # DRAM utilization: the share of the kernel's lifetime the DRAM pipes
    # are busy, scaled by how close the achieved bandwidth is to peak.
    busy = lat.memory_time / duration if duration > 0 else 0.0
    achieved_bw = lat.dram_bytes / duration if duration > 0 else 0.0
    dram_util = min(1.0, busy * min(1.0, achieved_bw / max(device.dram_bandwidth, 1.0) * 4.0))

    # IPC: issue rate scaled by compute-side business. Memory-bound kernels
    # leave the schedulers idle waiting on loads.
    compute_busy = lat.compute_time / duration if duration > 0 else 0.0
    issue_efficiency = _ISSUE_EFFICIENCY[kernel.category]
    ipc = device.issue_width * compute_busy * issue_efficiency
    # Even pure copy kernels retire some instructions.
    ipc = max(ipc, 0.08 * device.issue_width * min(1.0, busy + compute_busy))

    # Load/store efficiency mirror the access pattern's coalescing.
    gld = kernel.coalesced_fraction
    gst = min(1.0, kernel.coalesced_fraction + 0.08)

    # Cache hit rates follow data reuse; L1 captures a fixed fraction of
    # what the L2 would otherwise serve.
    reuse = max(kernel.reuse_factor, 1.0)
    l2_hit = min(0.95, 1.0 - 1.0 / reuse)
    small_working_set = kernel.bytes_read > 0 and kernel.bytes_read < device.l2_bytes
    if small_working_set:
        l2_hit = max(l2_hit, 0.60)
    l1_hit = 0.45 * l2_hit
    l2_read_hit = l2_hit
    # Writes mostly allocate in L2 on modern parts.
    l2_write_hit = min(0.98, l2_hit + 0.25)

    dram_read = lat.dram_bytes - kernel.bytes_written
    dram_read = max(dram_read, 0.0)
    read_tps = (kernel.bytes_read / _SECTOR_BYTES) / duration if duration > 0 else 0.0

    return KernelCounters(
        duration=duration,
        dram_utilization=dram_util,
        achieved_occupancy=lat.occupancy,
        ipc=ipc,
        gld_efficiency=gld,
        gst_efficiency=gst,
        l1_hit_rate=l1_hit,
        l2_hit_rate=l2_hit,
        l2_read_hit_rate=l2_read_hit,
        l2_write_hit_rate=l2_write_hit,
        fp32_ops=kernel.flops,
        dram_read_bytes=dram_read,
        read_transactions_per_second=read_tps,
    )


def aggregate_counters(items: list[tuple[KernelCounters, float]]) -> dict[str, float]:
    """Duration-weighted average of counters; items are (counters, weight).

    This is how per-stage resource-usage numbers (Figure 7) are produced:
    each kernel's counters are weighted by its share of the stage's time,
    which is what a per-stage nsight summary reports.
    """
    total_w = sum(w for _, w in items)
    if total_w <= 0:
        return {}
    fields = (
        "dram_utilization",
        "achieved_occupancy",
        "ipc",
        "gld_efficiency",
        "gst_efficiency",
        "l1_hit_rate",
        "l2_hit_rate",
    )
    out = {f: sum(getattr(c, f) * w for c, w in items) / total_w for f in fields}
    out["duration"] = total_w
    out["fp32_ops"] = sum(c.fp32_ops for c, _ in items)
    out["dram_read_bytes"] = sum(c.dram_read_bytes for c, _ in items)
    return out


# -- stall attribution -----------------------------------------------------------


def stall_breakdown(
    kernel: KernelEvent, device: DeviceSpec, latency: LatencyBreakdown | None = None
) -> dict[str, float]:
    """Normalized stall-reason shares for one kernel on one device."""
    lat = latency or kernel_latency(kernel, device)
    duration = max(lat.total, 1e-12)
    mem_frac = lat.memory_time / duration
    comp_frac = lat.compute_time / duration

    # Cache-resident reuse turns DRAM stalls into (shorter) cache stalls.
    reuse = max(kernel.reuse_factor, 1.0)
    l2_hit = min(0.95, 1.0 - 1.0 / reuse)

    weights = {
        "Mem": mem_frac * (1.0 - l2_hit) * 1.2,
        "Cache": mem_frac * l2_hit * 0.9,
        "Exec": comp_frac * device.exec_dep_pressure * 3.0,
        "Pipe": comp_frac * 0.5,
        "Sync": _SYNC_WEIGHT[kernel.category],
        "Inst": device.inst_fetch_pressure * (0.4 + 0.6 * comp_frac),
        "Else": 0.08,
    }
    total = sum(weights.values())
    return {reason: weights[reason] / total for reason in STALL_REASONS}


def aggregate_stalls(items: list[tuple[dict[str, float], float]]) -> dict[str, float]:
    """Duration-weighted aggregate of per-kernel stall breakdowns."""
    total_w = sum(w for _, w in items)
    if total_w <= 0:
        return {reason: 0.0 for reason in STALL_REASONS}
    return {
        reason: sum(b.get(reason, 0.0) * w for b, w in items) / total_w
        for reason in STALL_REASONS
    }


# -- memory and host work --------------------------------------------------------


def memory_breakdown(trace: Trace, model_bytes: float, input_bytes: float) -> MemoryBreakdown:
    """Decompose peak memory for one inference batch.

    The intermediate component is the maximum over stages of the stage's
    total activation output — a standard proxy for the live set under a
    stage-granular allocator. It preserves the two properties Figure 13
    demonstrates: linearity in batch size and a larger share for
    multi-modal models.
    """
    stage_bytes: dict[str, float] = {}
    for k in trace.kernels:
        stage_bytes[k.stage] = stage_bytes.get(k.stage, 0.0) + k.bytes_written
    intermediate = max(stage_bytes.values()) if stage_bytes else 0.0
    return MemoryBreakdown(model=float(model_bytes), dataset=float(input_bytes),
                           intermediate=float(intermediate))


def d2h_time(bytes_: float, device: DeviceSpec) -> float:
    """Device-to-host transfer time for one call."""
    # Symmetric link in this model.
    return h2d_time(bytes_, device)


def host_data_prep_time(bytes_: float, device: DeviceSpec, ops_per_byte: float = 2.0) -> float:
    """CPU time to massage intermediate data (reshaping, gluing features).

    The fusion stage's host-side preparation of feature maps is the "lengthy
    intermediate data operations" the paper identifies as a multi-modal
    bottleneck; its cost scales with the host's (not the GPU's) speed.
    """
    if bytes_ < 0:
        raise ValueError("negative data size")
    return (bytes_ * ops_per_byte) / (device.host_gflops * 1e9)


# -- concurrency ------------------------------------------------------------------


def analytic_concurrency(times: dict[str, float]) -> ConcurrencyAnalysis:
    """The closed-form max/sum shortcut over per-modality encoder times.

    The reference the schedule-derived
    :func:`~repro.core.analysis.concurrency.analyze_concurrency` is
    differentially tested against.
    """
    if len(times) < 2:
        raise ValueError("concurrency analysis needs a multi-modal report")
    straggler = max(times, key=times.get)
    t_max = times[straggler]
    t_min = min(times.values())
    serial = sum(times.values())
    m = len(times)

    # Idle area: each of the m equal resource shares is busy for its
    # modality's time and idle until the straggler finishes.
    idle_area = sum(t_max - t for t in times.values())
    idle_fraction = idle_area / (m * t_max) if t_max > 0 else 0.0

    # The paper's phrasing: the other (m-1) streams go idle once their own
    # work finishes; on average that happens after mean(non-straggler time).
    others = [t for name, t in times.items() if name != straggler]
    mean_other = sum(others) / len(others)
    idle_window = 1.0 - (mean_other / t_max) if t_max > 0 else 0.0

    return ConcurrencyAnalysis(
        modality_times=times,
        straggler=straggler,
        straggler_ratio=t_max / t_min if t_min > 0 else float("inf"),
        serial_encoder_time=serial,
        concurrent_encoder_time=t_max,
        concurrency_speedup=serial / t_max if t_max > 0 else 1.0,
        idle_resource_fraction=idle_fraction,
        idle_window_fraction=idle_window,
        idle_stream_share=(m - 1) / m,
    )


# -- the scalar engine --------------------------------------------------------------


@dataclass
class ScalarKernelExecution:
    """One kernel launch priced on a device (scalar reference)."""

    event: KernelEvent
    latency: LatencyBreakdown
    counters: KernelCounters
    stalls: dict[str, float]

    @property
    def duration(self) -> float:
        return self.latency.total


@dataclass
class ScalarExecutionReport:
    """Reference report: eager per-kernel records, dict-loop aggregations."""

    device: DeviceSpec
    kernels: list[ScalarKernelExecution]
    gpu_time: float
    host_time: float
    launch_time: float
    transfer_time: float
    data_prep_time: float
    sync_time: float
    memory: MemoryBreakdown
    memory_pressure: float
    slowdown: float
    host_events: list[HostEvent] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        return self.gpu_time + self.host_time

    @property
    def cpu_runtime_share(self) -> float:
        total = self.total_time
        return self.host_time / total if total > 0 else 0.0

    def stage_time(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for kx in self.kernels:
            out[kx.event.stage] += kx.duration + self.device.kernel_launch_overhead * self.slowdown
        return dict(out)

    def stage_counters(self) -> dict[str, dict[str, float]]:
        groups: dict[str, list[tuple[KernelCounters, float]]] = defaultdict(list)
        for kx in self.kernels:
            groups[kx.event.stage].append((kx.counters, kx.duration))
        return {stage: aggregate_counters(items) for stage, items in groups.items()}

    def stage_stalls(self) -> dict[str, dict[str, float]]:
        groups: dict[str, list[tuple[dict[str, float], float]]] = defaultdict(list)
        for kx in self.kernels:
            groups[kx.event.stage].append((kx.stalls, kx.duration))
        return {stage: aggregate_stalls(items) for stage, items in groups.items()}

    def overall_stalls(self) -> dict[str, float]:
        return aggregate_stalls([(kx.stalls, kx.duration) for kx in self.kernels])

    def category_time_breakdown(self, stage: str | None = None) -> dict[KernelCategory, float]:
        totals: dict[KernelCategory, float] = defaultdict(float)
        for kx in self.kernels:
            if stage is not None and kx.event.stage != stage:
                continue
            totals[kx.event.category] += kx.duration
        grand = sum(totals.values())
        if grand <= 0:
            return {}
        return {cat: t / grand for cat, t in totals.items()}

    def modality_time(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for kx in self.kernels:
            if kx.event.modality is not None:
                out[kx.event.modality] += (
                    kx.duration + self.device.kernel_launch_overhead * self.slowdown
                )
        return dict(out)

    def modality_imbalance(self) -> float:
        times = list(self.modality_time().values())
        if len(times) < 2 or min(times) <= 0:
            return 1.0
        return max(times) / min(times)

    def kernel_size_distribution(self) -> dict[str, float]:
        counts = dict.fromkeys(KERNEL_SIZE_BINS, 0)
        for kx in self.kernels:
            us = kx.duration * 1e6
            if us < 10:
                counts["0-10"] += 1
            elif us < 50:
                counts["10-50"] += 1
            elif us < 100:
                counts["50-100"] += 1
            else:
                counts[">100"] += 1
        n = len(self.kernels)
        return {b: c / n for b, c in counts.items()} if n else dict.fromkeys(KERNEL_SIZE_BINS, 0.0)

    def hotspot(self, category: KernelCategory,
                stage: str | None = None) -> "ScalarKernelExecution | None":
        pool = [
            kx
            for kx in self.kernels
            if kx.event.category == category and (stage is None or kx.event.stage == stage)
        ]
        return max(pool, key=lambda kx: kx.duration) if pool else None


class ScalarExecutionEngine:
    """Prices traces one event at a time (reference path).

    Semantics are identical to :class:`~repro.hw.engine.ExecutionEngine`
    including ``concurrent_modalities``; see that class for the model
    documentation.
    """

    def __init__(self, device: DeviceSpec, concurrent_modalities: bool = False):
        self.device = device
        self.concurrent_modalities = concurrent_modalities

    def _concurrent_encoder_time(self, encoder_kernels: list[KernelEvent]) -> float:
        streams: dict[str, list[KernelEvent]] = defaultdict(list)
        unattributed: list[KernelEvent] = []
        for ev in encoder_kernels:
            if ev.modality is None:
                unattributed.append(ev)
            else:
                streams[ev.modality].append(ev)
        n = len(streams)
        if n < 2 or self.device.sm_count < n:
            return sum(kernel_latency(ev, self.device).total for ev in encoder_kernels)

        latency_bound = max(
            sum(kernel_latency(ev, self.device).total for ev in events)
            for events in streams.values()
        )
        throughput_bound = sum(
            saturated_latency(ev, self.device) for ev in encoder_kernels if ev.modality
        )
        tail = sum(kernel_latency(ev, self.device).total for ev in unattributed)
        return max(latency_bound, throughput_bound) + tail

    def _price_host_event(self, ev: HostEvent) -> tuple[str, float]:
        d = self.device
        if ev.kind == HostOpKind.H2D:
            return "transfer", h2d_time(ev.bytes, d)
        if ev.kind == HostOpKind.D2H:
            return "transfer", d2h_time(ev.bytes, d)
        if ev.kind == HostOpKind.DATA_PREP:
            return "data_prep", host_data_prep_time(ev.bytes, d, ops_per_byte=8.0)
        if ev.kind == HostOpKind.PREPROCESS:
            return "data_prep", host_data_prep_time(ev.bytes, d, ops_per_byte=6.0)
        if ev.kind == HostOpKind.SYNC:
            return "sync", 5.0 * d.kernel_launch_overhead
        if ev.kind == HostOpKind.LAUNCH:
            return "launch", d.kernel_launch_overhead
        raise ValueError(f"unknown host event kind {ev.kind}")

    def run(self, trace: Trace, model_bytes: float = 0.0,
            input_bytes: float = 0.0) -> ScalarExecutionReport:
        """Price every event with per-event scalar calls and aggregate."""
        kernels: list[ScalarKernelExecution] = []
        gpu_time = 0.0
        for ev in trace.kernels:
            lat = kernel_latency(ev, self.device)
            counters = derive_counters(ev, self.device, lat)
            stalls = stall_breakdown(ev, self.device, lat)
            kernels.append(
                ScalarKernelExecution(event=ev, latency=lat, counters=counters, stalls=stalls)
            )
            gpu_time += lat.total

        if self.concurrent_modalities:
            encoder_events = [ev for ev in trace.kernels if ev.stage == "encoder"]
            serial_encoder = sum(
                kx.latency.total for kx in kernels if kx.event.stage == "encoder"
            )
            gpu_time += self._concurrent_encoder_time(encoder_events) - serial_encoder

        launch_time = len(kernels) * self.device.kernel_launch_overhead
        transfer_time = 0.0
        data_prep_time = 0.0
        sync_time = 0.0
        for ev in trace.host_events:
            bucket, seconds = self._price_host_event(ev)
            if bucket == "transfer":
                transfer_time += seconds
            elif bucket == "data_prep":
                data_prep_time += seconds
            elif bucket == "sync":
                sync_time += seconds
            else:
                launch_time += seconds

        mem = memory_breakdown(trace, model_bytes=model_bytes, input_bytes=input_bytes)
        pressure = capacity_pressure(mem, self.device)
        slowdown = thrash_factor(pressure)

        host_time = (launch_time + transfer_time + data_prep_time + sync_time) * slowdown
        gpu_time *= slowdown
        if slowdown != 1.0:
            for kx in kernels:
                kx.latency = LatencyBreakdown(
                    total=kx.latency.total * slowdown,
                    compute_time=kx.latency.compute_time * slowdown,
                    memory_time=kx.latency.memory_time * slowdown,
                    fixed_overhead=kx.latency.fixed_overhead,
                    dram_bytes=kx.latency.dram_bytes,
                    compute_utilization=kx.latency.compute_utilization,
                    occupancy=kx.latency.occupancy,
                )

        return ScalarExecutionReport(
            device=self.device,
            kernels=kernels,
            gpu_time=gpu_time,
            host_time=host_time,
            launch_time=launch_time * slowdown,
            transfer_time=transfer_time * slowdown,
            data_prep_time=data_prep_time * slowdown,
            sync_time=sync_time * slowdown,
            memory=mem,
            memory_pressure=pressure,
            slowdown=slowdown,
            host_events=list(trace.host_events),
        )
