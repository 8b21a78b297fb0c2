"""Figures 8-9: intra-network heterogeneity.

Figure 8 breaks each stage's GPU time down by kernel category (Conv,
BNorm, Elewise, Pooling, Relu, Gemm, Reduce, Other): different stages —
and different modality encoders — are dominated by different operations
(VGG by Gemm, ALBERT by activations), so no single accelerator
specialization covers the whole application.

Figure 9 takes two hotspot kernels on AV-MNIST and compares their
fine-grained counters (a) across stages for a shared hotspot kernel —
resource usage varies by orders of magnitude (the paper reports 15x in
fp32 ops and 80x in read TPS for its Reduce kernel; our lean LeNet has no
Reduce in every stage, so the default is the Gemm kernel, which every
stage launches and which shows the same cross-stage spread) — and (b) across
fusion methods (concat vs tensor) for the Elewise kernel — similar
resource levels but a significant jump in DRAM read bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.device import DeviceSpec
from repro.hw.engine import KernelExecution
from repro.profiling.profiler import price_grid
from repro.trace.events import KernelCategory
from repro.trace.store import TraceStore
from repro.workloads.registry import list_workloads


def kernel_breakdown_analysis(
    workloads: list[str] | None = None,
    batch_size: int = 32,
    device: str | DeviceSpec = "2080ti",
    seed: int = 0,
    backend: str | None = "meta",
    store: TraceStore | None = None,
) -> dict[str, dict[str, dict[str, float]]]:
    """{workload: {stage: {category: time share}}} — Figure 8."""
    names = workloads or list_workloads()
    grid = price_grid(names, [batch_size], [device], seed=seed,
                      backend=backend, store=store)
    return {
        cell.workload: {
            stage: {
                cat.value: share
                for cat, share in cell.report.category_time_breakdown(stage).items()
            }
            for stage in cell.trace.stages()
        }
        for cell in grid.values()
    }


@dataclass
class HotspotRecord:
    """Counters of one hotspot kernel in one context (stage or fusion)."""

    context: str  # stage name or fusion name
    kernel_name: str
    fp32_ops: float
    dram_read_bytes: float
    read_tps: float
    l1_hit_rate: float
    l2_hit_rate: float
    l2_read_hit_rate: float
    l2_write_hit_rate: float
    duration: float

    @classmethod
    def of(cls, context: str, kx: KernelExecution) -> HotspotRecord:
        """The record of hotspot ``kx`` (a priced kernel) in ``context``."""
        c = kx.counters
        return cls(
            context=context, kernel_name=kx.event.name, fp32_ops=c.fp32_ops,
            dram_read_bytes=c.dram_read_bytes,
            read_tps=c.read_transactions_per_second,
            l1_hit_rate=c.l1_hit_rate, l2_hit_rate=c.l2_hit_rate,
            l2_read_hit_rate=c.l2_read_hit_rate, l2_write_hit_rate=c.l2_write_hit_rate,
            duration=c.duration,
        )


def hotspot_across_stages(
    workload: str = "avmnist",
    category: KernelCategory = KernelCategory.GEMM,
    batch_size: int = 32,
    device: str | DeviceSpec = "2080ti",
    seed: int = 0,
    backend: str | None = "meta",
    store: TraceStore | None = None,
) -> list[HotspotRecord]:
    """Figure 9a: the same kernel category's hotspot in each stage."""
    [result] = price_grid([workload], [batch_size], [device], seed=seed,
                          backend=backend, store=store).values()
    records = []
    for stage in result.trace.stages():
        kx = result.report.hotspot(category, stage=stage)
        if kx is not None:
            records.append(HotspotRecord.of(stage, kx))
    return records


def hotspot_across_fusions(
    workload: str = "avmnist",
    fusions: tuple[str, ...] = ("concat", "tensor"),
    category: KernelCategory = KernelCategory.ELEWISE,
    batch_size: int = 32,
    device: str | DeviceSpec = "2080ti",
    seed: int = 0,
    backend: str | None = "meta",
    store: TraceStore | None = None,
) -> list[HotspotRecord]:
    """Figure 9b: a fusion-stage hotspot kernel across fusion methods."""
    records = []
    for fusion in fusions:
        [result] = price_grid([workload], [batch_size], [device], fusion=fusion,
                              seed=seed, backend=backend, store=store).values()
        kx = result.report.hotspot(category, stage="fusion")
        if kx is not None:
            records.append(HotspotRecord.of(fusion, kx))
    return records
