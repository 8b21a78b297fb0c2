"""The MMBench profiling pipeline (Figure 3).

One call to :meth:`MMBenchProfiler.profile` runs a traced inference over a
batch and produces all three metric categories the paper defines:

1. **Algorithm level** (from the application itself): parameter count,
   FLOPs, modality list, task kind — what the paper gets from Python
   module logs.
2. **System level** (Nsight Systems / memory-profiler analogues): GPU vs
   CPU+Runtime time, transfer/data-prep/sync decomposition, peak memory
   breakdown.
3. **Architecture level** (Nsight Compute analogue): per-stage counters,
   kernel category mix, per-kernel records, stall attribution.

The profile is captured once (device-independently) and can be re-priced
on any :class:`~repro.hw.device.DeviceSpec` — the reproduction's version
of pointing the same scripts at the server or a Jetson board.

:func:`price_stored` is the one pricer of a stored trace: it prices the
trace on every device in a single broadcasted
:meth:`~repro.hw.engine.ExecutionEngine.run_sweep` pass, batch- or
model-scaled first. :func:`price_grid` is the sweep entry point: one call
prices a (workloads x batch sizes x devices) grid, fetching each
device-independent trace from the shared store once. Every figure
analysis and the serving cost model fill their grids through it;
:meth:`MMBenchProfiler.profile_stored`, the ingest sweep and the training
analyses call :func:`price_stored` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.hw.device import DeviceSpec, get_device
from repro.hw.engine import ExecutionEngine, ExecutionReport
from repro.trace.store import StoredTrace, TraceStore, capture_inference, default_store
from repro.trace.timeline import scale_trace
from repro.trace.tracer import Trace
from repro.workloads.base import MultiModalModel


@dataclass
class ProfileResult:
    """Everything one profiling session produced."""

    model_name: str
    device: DeviceSpec
    batch_size: int
    trace: Trace
    report: ExecutionReport
    # Algorithm level.
    parameters: int
    parameter_bytes: int
    flops: float
    modalities: list[str]

    # -- convenience views ------------------------------------------------------

    @property
    def total_time(self) -> float:
        return self.report.total_time

    @property
    def throughput(self) -> float:
        """Samples per second at this batch size."""
        return self.batch_size / self.total_time if self.total_time > 0 else 0.0

    def algorithm_metrics(self) -> dict[str, float]:
        return {
            "parameters": float(self.parameters),
            "parameter_bytes": float(self.parameter_bytes),
            "flops": self.flops,
            "flops_per_sample": self.flops / self.batch_size,
            "num_modalities": float(len(self.modalities)),
        }

    def system_metrics(self) -> dict[str, float]:
        r = self.report
        return {
            "total_time": r.total_time,
            "gpu_time": r.gpu_time,
            "cpu_runtime_time": r.host_time,
            "cpu_runtime_share": r.cpu_runtime_share,
            "launch_time": r.launch_time,
            "transfer_time": r.transfer_time,
            "data_prep_time": r.data_prep_time,
            "sync_time": r.sync_time,
            "peak_memory": r.memory.total,
            "memory_model": r.memory.model,
            "memory_dataset": r.memory.dataset,
            "memory_intermediate": r.memory.intermediate,
            "memory_pressure": r.memory_pressure,
        }

    def architecture_metrics(self) -> dict[str, dict]:
        r = self.report
        return {
            "stage_time": r.stage_time(),
            "stage_counters": r.stage_counters(),
            "stage_stalls": r.stage_stalls(),
            "kernel_categories": {
                cat.value: share for cat, share in r.category_time_breakdown().items()
            },
            "kernel_size_distribution": r.kernel_size_distribution(),
        }


class MMBenchProfiler:
    """Profiles staged multi-modal models on analytical device models."""

    def __init__(self, device: str | DeviceSpec = "2080ti"):
        self.device = get_device(device)

    def capture(self, model: MultiModalModel, batch: dict[str, np.ndarray]) -> Trace:
        """Trace one inference forward pass (device-independent)."""
        return capture_inference(model, batch)

    def price(
        self, model: MultiModalModel, trace: Trace, batch_size: int,
        device: str | DeviceSpec | None = None,
        model_bytes: float | None = None,
        input_bytes: float | None = None,
    ) -> ExecutionReport:
        """Re-price an existing trace on a device model.

        ``model_bytes``/``input_bytes`` default to the model's own
        footprint; pass overrides when pricing a scaled trace (see
        :func:`repro.trace.timeline.scale_trace`).
        """
        engine = ExecutionEngine(self.device if device is None else get_device(device))
        return engine.run(
            trace,
            model_bytes=model.parameter_bytes() if model_bytes is None else model_bytes,
            input_bytes=model.input_bytes(batch_size) if input_bytes is None else input_bytes,
        )

    def profile(self, model: MultiModalModel, batch: dict[str, np.ndarray]) -> ProfileResult:
        """Trace + price + collect all three metric categories."""
        batch_size = len(next(iter(batch.values())))
        trace = self.capture(model, batch)
        report = self.price(model, trace, batch_size)
        return ProfileResult(
            model_name=model.name,
            device=self.device,
            batch_size=batch_size,
            trace=trace,
            report=report,
            parameters=model.num_parameters(),
            parameter_bytes=model.parameter_bytes(),
            flops=trace.total_flops,
            modalities=model.modality_names,
        )

    def profile_stored(self, stored: StoredTrace, batch_size: int | None = None,
                       lint: bool = True) -> ProfileResult:
        """Profile a :class:`~repro.trace.store.StoredTrace` at ``batch_size``
        on this profiler's device.

        Any stored entry — captured from a built-in workload or ingested
        from an external execution graph — prices identically from here.
        ``batch_size`` defaults to the batch the entry recorded
        (``stored.batch_size``); any other batch prices the trace
        batch-scaled by ``batch_size / stored.batch_size``
        (:func:`price_stored`'s ``work``) and scales the FLOPs with it.
        The trace is lint-checked first (a few array reductions; raises
        :class:`~repro.lint.core.LintFailure` on errors such as negative
        or NaN work descriptors, which would silently corrupt the priced
        numbers); pass ``lint=False`` to price a known-bad trace anyway.
        """
        if lint:
            from repro.lint import check, lint_trace

            check(lint_trace(stored, source=stored.model_name),
                  what=f"stored trace {stored.model_name!r}")
        batch_size = stored.batch_size if batch_size is None else batch_size
        work = batch_size / stored.batch_size
        [report] = price_stored(stored, [self.device], work=work)
        return ProfileResult(
            model_name=stored.model_name,
            device=self.device,
            batch_size=batch_size,
            trace=stored.trace,
            report=report,
            parameters=stored.parameters,
            parameter_bytes=stored.parameter_bytes,
            flops=stored.trace.total_flops * work,
            modalities=list(stored.modalities),
        )


# -- one-pass grid pricing ------------------------------------------------------


@dataclass
class GridCell:
    """One (workload, batch size, device) point of a pricing grid."""

    workload: str
    fusion: str | None
    unimodal: str | None
    batch_size: int
    device: DeviceSpec
    report: ExecutionReport
    stored: StoredTrace
    scale: float = 1.0

    @property
    def trace(self) -> Trace:
        """The (possibly scaled) trace the report priced."""
        return self.report.trace

    @property
    def total_time(self) -> float:
        return self.report.total_time


def price_stored(stored: StoredTrace, devices: Sequence[str | DeviceSpec],
                 work: float = 1.0, params: float = 1.0) -> list[ExecutionReport]:
    """One report per entry of ``devices`` for a stored trace, priced in one
    broadcasted :meth:`~repro.hw.engine.ExecutionEngine.run_sweep` pass.

    ``work`` scales the batch: the trace's work descriptors
    (:func:`~repro.trace.timeline.scale_trace`) and the input footprint.
    ``params`` scales the parameter footprint: a model scale, or a training
    step's resident parameters, gradients and optimizer state
    (:func:`~repro.profiling.training.training_memory_factor`).
    """
    specs = [get_device(d) for d in devices]
    if not specs:
        return []
    trace = stored.trace if work == 1.0 else scale_trace(stored.trace, work)
    return ExecutionEngine(specs[0]).run_sweep(
        trace, specs, model_bytes=stored.parameter_bytes * params,
        input_bytes=stored.input_bytes * work)


def grid_devices(devices: Sequence[str | DeviceSpec]) -> dict[str, DeviceSpec]:
    """``{key: spec}`` for a grid's ``devices``, in order: the key is a name
    exactly as passed, or a spec object's ``DeviceSpec.name``.

    A repeated entry keeps one key. Two *different* specs under one key
    raise ``ValueError``: a grid holds one cell per key, so one of them
    would be dropped (give each member of a perturbed ensemble its own
    name).
    """
    keyed: dict[str, DeviceSpec] = {}
    for device in devices:
        key = device if isinstance(device, str) else device.name
        spec = get_device(device)
        if keyed.setdefault(key, spec) != spec:
            raise ValueError(f"two different device specs share the grid key {key!r}")
    return keyed


def price_grid(
    workloads: Sequence[str],
    batches: Sequence[int],
    devices: Sequence[str | DeviceSpec],
    fusion: str | None = None,
    unimodal: str | None = None,
    seed: int = 0,
    backend: str | None = "meta",
    scale: float = 1.0,
    store: TraceStore | None = None,
) -> dict[tuple[str, int, str], GridCell]:
    """Price a (workload x batch x device) grid in one pass per trace.

    Each (workload, batch) trace is fetched from the shared
    :class:`~repro.trace.store.TraceStore` once (captured on a cold key,
    loaded columnar on a warm one) and priced across *all* ``devices`` by
    :func:`price_stored`. ``scale`` extrapolates the traced work
    descriptors (and the model/input byte footprints) before pricing — the
    edge-migration study's full-scale configurations.

    Returns ``{(workload, batch_size, device_key): GridCell}`` keyed by
    :func:`grid_devices`.
    """
    store = store if store is not None else default_store()
    keyed = grid_devices(devices)
    out: dict[tuple[str, int, str], GridCell] = {}
    if not keyed:
        return out
    for workload in workloads:
        for batch_size in batches:
            stored = store.get_or_capture(
                workload, fusion=fusion, unimodal=unimodal,
                batch_size=batch_size, seed=seed, backend=backend,
            )
            reports = price_stored(stored, list(keyed.values()), work=scale, params=scale)
            for (key, spec), report in zip(keyed.items(), reports):
                out[(workload, int(batch_size), key)] = GridCell(
                    workload=workload, fusion=fusion, unimodal=unimodal,
                    batch_size=int(batch_size), device=spec, report=report,
                    stored=stored, scale=scale,
                )
    return out
