"""Training-step characterization over traced training executions.

Everything here consumes *traced* training steps — real forward, loss,
backward and optimizer kernels captured by
:func:`repro.profiling.training.trace_training_step` through the shared
trace store — and prices them with the vectorized execution engine. The
pre-traced 2x heuristic survives only as a cross-check
(:func:`traced_vs_synthetic`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.hw.device import DeviceSpec
from repro.hw.engine import ExecutionReport
from repro.profiling.profiler import grid_devices, price_stored
from repro.profiling.training import (
    synthetic_training_trace,
    traced_training_flops_ratio,
    training_memory_factor,
)
from repro.trace.store import TraceStore, default_store
from repro.workloads.registry import list_workloads


@dataclass
class TrainingStepBreakdown:
    """One workload's priced training step on one device."""

    workload: str
    batch_size: int
    device: str
    optimizer: str
    total_time: float
    gpu_time: float
    host_time: float
    pass_time: dict[str, float]  # forward/loss/backward/optimizer -> seconds
    pass_stage_time: dict[str, dict[str, float]]  # pass -> stage -> seconds
    modality_pass_time: dict[str, dict[str, float]]  # modality -> pass -> seconds
    flops: float
    forward_flops: float
    flops_ratio: float  # full traced step over its forward pass
    memory_pressure: float
    report: ExecutionReport = field(repr=False)

    @property
    def steps_per_second(self) -> float:
        return 1.0 / self.total_time if self.total_time > 0 else 0.0

    @property
    def samples_per_second(self) -> float:
        return self.batch_size * self.steps_per_second

    def pass_share(self) -> dict[str, float]:
        """Each pass's fraction of device time (sums to ~1)."""
        total = sum(self.pass_time.values())
        if total <= 0:
            return {p: 0.0 for p in self.pass_time}
        return {p: t / total for p, t in self.pass_time.items()}


def _breakdown(workload: str, stored, report: ExecutionReport,
               batch_size: int, optimizer: str) -> TrainingStepBreakdown:
    cols = stored.trace.columns()
    forward_flops = float(cols.flops[cols.kernel_indices_for_pass("forward")].sum())
    return TrainingStepBreakdown(
        workload=workload,
        batch_size=batch_size,
        device=report.device.name,
        optimizer=optimizer,
        total_time=report.total_time,
        gpu_time=report.gpu_time,
        host_time=report.host_time,
        pass_time=report.pass_time(),
        pass_stage_time=report.pass_stage_time(),
        modality_pass_time=report.pass_modality_time(),
        flops=stored.trace.total_flops,
        forward_flops=forward_flops,
        flops_ratio=(stored.trace.total_flops / forward_flops
                     if forward_flops > 0 else 0.0),
        memory_pressure=report.memory_pressure,
        report=report,
    )


def training_step_analysis(
    workloads: Sequence[str] | None = None,
    device: str | DeviceSpec = "2080ti",
    batch_size: int = 8,
    optimizer: str = "adam",
    fusion: str | None = None,
    unimodal: str | None = None,
    seed: int = 0,
    backend: str | None = "meta",
    store: TraceStore | None = None,
) -> dict[str, TrainingStepBreakdown]:
    """Per-stage / per-pass training-step breakdown for each workload.

    Traces come from the shared store's pass-aware training keys; pricing
    runs on the vectorized engine with the optimizer-state-aware memory
    footprint.
    """
    workloads = list(workloads) if workloads is not None else list_workloads()
    params = training_memory_factor(optimizer)
    store = store if store is not None else default_store()
    out: dict[str, TrainingStepBreakdown] = {}
    for workload in workloads:
        stored = store.get_or_capture_training(
            workload, fusion=fusion, unimodal=unimodal, batch_size=batch_size,
            seed=seed, backend=backend, optimizer=optimizer,
        )
        [report] = price_stored(stored, [device], params=params)
        out[workload] = _breakdown(workload, stored, report, batch_size, optimizer)
    return out


def training_batch_sweep(
    workload: str,
    batches: Sequence[int] = (1, 8, 32, 128),
    devices: Sequence[str | DeviceSpec] = ("2080ti",),
    optimizer: str = "adam",
    seed: int = 0,
    backend: str | None = "meta",
    store: TraceStore | None = None,
) -> dict[tuple[int, str], TrainingStepBreakdown]:
    """Training-step pricing over a (batch x device) grid.

    Each batch's training trace is fetched from the store once and priced
    on *all* devices by one :func:`~repro.profiling.profiler.price_stored`
    pass, keyed like the inference grids
    (:func:`~repro.profiling.profiler.grid_devices`).
    """
    store = store if store is not None else default_store()
    keyed = grid_devices(devices)
    params = training_memory_factor(optimizer)
    out: dict[tuple[int, str], TrainingStepBreakdown] = {}
    if not keyed:
        return out
    for batch_size in batches:
        stored = store.get_or_capture_training(
            workload, batch_size=batch_size, seed=seed, backend=backend,
            optimizer=optimizer,
        )
        reports = price_stored(stored, list(keyed.values()), params=params)
        for key, report in zip(keyed, reports):
            out[(int(batch_size), key)] = _breakdown(
                workload, stored, report, int(batch_size), optimizer)
    return out


@dataclass
class TrainingCrossCheck:
    """Traced vs synthetic training accounting for one workload."""

    workload: str
    traced_ratio: float  # traced full-step FLOPs / traced forward FLOPs
    synthetic_ratio: float  # heuristic full-step FLOPs / forward FLOPs
    traced_flops: float
    synthetic_flops: float

    @property
    def agreement(self) -> float:
        """Traced over synthetic FLOPs (1.0 = the heuristic was exact)."""
        return (self.traced_flops / self.synthetic_flops
                if self.synthetic_flops > 0 else 0.0)


def traced_vs_synthetic(
    workload: str,
    batch_size: int = 8,
    optimizer: str = "adam",
    seed: int = 0,
    backend: str | None = "meta",
    store: TraceStore | None = None,
) -> TrainingCrossCheck:
    """Differential between the traced step and the 2x heuristic."""
    store = store if store is not None else default_store()
    traced = store.get_or_capture_training(
        workload, batch_size=batch_size, seed=seed, backend=backend,
        optimizer=optimizer)
    forward = store.get_or_capture(
        workload, batch_size=batch_size, seed=seed, backend=backend)
    synthetic = synthetic_training_trace(
        forward.trace, forward.parameter_bytes, optimizer)
    return TrainingCrossCheck(
        workload=workload,
        traced_ratio=traced_training_flops_ratio(traced.trace),
        synthetic_ratio=synthetic.total_flops / forward.trace.total_flops,
        traced_flops=traced.trace.total_flops,
        synthetic_flops=synthetic.total_flops,
    )
