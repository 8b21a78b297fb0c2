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

:func:`price_grid` is the sweep entry point: one call prices a
(workloads x batch sizes x devices) grid, fetching each device-independent
trace from the shared store once and pricing it on every device in a
single broadcasted :meth:`~repro.hw.engine.ExecutionEngine.run_sweep`
pass. The batch-size / edge / heterogeneity / stage analyses and the
serving cost model all fill their grids through it; :func:`price_batches`
batch-scales one stored trace (an ingested graph) instead, and
:func:`profile_stored_at` profiles one at any batch size through it.
"""

from __future__ import annotations

import dataclasses
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
        self.device = get_device(device) if isinstance(device, str) else device

    def capture(self, model: MultiModalModel, batch: dict[str, np.ndarray]) -> Trace:
        """Trace one inference forward pass (device-independent)."""
        return capture_inference(model, batch)

    def price(
        self, model: MultiModalModel | None, trace: Trace, batch_size: int,
        device: str | DeviceSpec | None = None,
        model_bytes: float | None = None,
        input_bytes: float | None = None,
    ) -> ExecutionReport:
        """Re-price an existing trace on a device model.

        ``model_bytes``/``input_bytes`` default to the model's own
        footprint; pass overrides when pricing a scaled trace (see
        :func:`repro.trace.timeline.scale_trace`). ``model`` may be None
        when both byte counts are given explicitly — the path the trace
        store uses, where no model object exists at pricing time.
        """
        if model is None and (model_bytes is None or input_bytes is None):
            raise ValueError("price() needs a model or explicit model/input bytes")
        dev = self.device if device is None else (
            get_device(device) if isinstance(device, str) else device
        )
        engine = ExecutionEngine(dev)
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

    def profile_workload(
        self,
        workload: str,
        fusion: str | None = None,
        unimodal: str | None = None,
        batch_size: int = 8,
        seed: int = 0,
        backend: str | None = None,
        store: TraceStore | None = None,
    ) -> ProfileResult:
        """Store-backed :meth:`profile` for a registered workload.

        The trace comes from the shared :class:`~repro.trace.store.TraceStore`
        (captured with ``backend`` on a cold key, loaded on a warm one), so
        repeated sweeps over the same configuration never re-trace.
        """
        store = store if store is not None else default_store()
        stored = store.get_or_capture(
            workload, fusion=fusion, unimodal=unimodal,
            batch_size=batch_size, seed=seed, backend=backend,
        )
        return self.profile_stored(stored, batch_size)

    def profile_stored(self, stored: StoredTrace, batch_size: int,
                       lint: bool = True) -> ProfileResult:
        """Price a :class:`~repro.trace.store.StoredTrace` on this profiler's
        device.

        The common tail of :meth:`profile_workload` and the ingest path:
        any stored entry — captured from a built-in workload or ingested
        from an external execution graph — prices identically from here.
        The trace is lint-checked first (a few array reductions; raises
        :class:`~repro.lint.core.LintFailure` on errors such as negative
        or NaN work descriptors, which would silently corrupt the priced
        numbers); pass ``lint=False`` to price a known-bad trace anyway.
        """
        if lint:
            from repro.lint import check, lint_trace

            check(lint_trace(stored, source=stored.model_name),
                  what=f"stored trace {stored.model_name!r}")
        report = self.price(
            None, stored.trace, batch_size,
            model_bytes=stored.parameter_bytes, input_bytes=stored.input_bytes,
        )
        return ProfileResult(
            model_name=stored.model_name,
            device=self.device,
            batch_size=batch_size,
            trace=stored.trace,
            report=report,
            parameters=stored.parameters,
            parameter_bytes=stored.parameter_bytes,
            flops=stored.trace.total_flops,
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
    a single broadcasted :meth:`~repro.hw.engine.ExecutionEngine.run_sweep`
    call. ``scale`` extrapolates the traced work descriptors (and the
    model/input byte footprints) before pricing — the edge-migration
    study's full-scale configurations.

    Returns ``{(workload, batch_size, device_key): GridCell}`` where
    ``device_key`` is the device name exactly as passed in ``devices``
    (or ``DeviceSpec.name`` for spec objects).
    """
    store = store if store is not None else default_store()
    specs = [get_device(d) if isinstance(d, str) else d for d in devices]
    keys = [d if isinstance(d, str) else d.name for d in devices]
    out: dict[tuple[str, int, str], GridCell] = {}
    if not specs:
        return out
    for workload in workloads:
        for batch_size in batches:
            stored = store.get_or_capture(
                workload, fusion=fusion, unimodal=unimodal,
                batch_size=batch_size, seed=seed, backend=backend,
            )
            trace = stored.trace if scale == 1.0 else scale_trace(stored.trace, scale)
            engine = ExecutionEngine(specs[0])
            reports = engine.run_sweep(
                trace, specs,
                model_bytes=stored.parameter_bytes * scale,
                input_bytes=stored.input_bytes * scale,
            )
            for key, spec, report in zip(keys, specs, reports):
                out[(workload, int(batch_size), key)] = GridCell(
                    workload=workload, fusion=fusion, unimodal=unimodal,
                    batch_size=int(batch_size), device=spec, report=report,
                    stored=stored, scale=scale,
                )
    return out


def price_batches(stored: StoredTrace, base_batch_size: int, batches: Sequence[int],
                  devices: Sequence[str | DeviceSpec]) -> list[list[ExecutionReport]]:
    """Per batch size ``b``, one report per device for the stored trace
    batch-scaled by ``b / base_batch_size``: per-kernel work and the input
    footprint scale with the batch while the parameter footprint stays
    fixed, which is the batch semantics (``price_grid``'s ``scale`` scales
    both because it models scaling the *model*, not the batch)."""
    specs = [get_device(d) if isinstance(d, str) else d for d in devices]
    if not specs:
        return [[] for _ in batches]
    out = []
    for b in batches:
        factor = b / base_batch_size
        trace = stored.trace if factor == 1.0 else scale_trace(stored.trace, factor)
        out.append(ExecutionEngine(specs[0]).run_sweep(
            trace, specs, model_bytes=stored.parameter_bytes,
            input_bytes=stored.input_bytes * factor))
    return out


def profile_stored_at(profiler: MMBenchProfiler, stored: StoredTrace,
                      batch_size: int | None = None) -> ProfileResult:
    """Profile a stored trace at ``batch_size`` (default: the batch it was
    recorded at, ``stored.extra["batch_size"]``).

    At the recorded batch this is :meth:`MMBenchProfiler.profile_stored`.
    At any other batch the price comes from :func:`price_batches` (the
    pricer ``mmbench ingest --sweep`` prints) and the FLOPs scale by
    ``batch_size / recorded batch``; the rest of the profile is the
    recorded one.
    """
    base = int(stored.extra.get("batch_size", 1))
    result = profiler.profile_stored(stored, base)
    if batch_size is None or batch_size == base:
        return result
    [[priced]] = price_batches(stored, base, [batch_size], [profiler.device])
    return dataclasses.replace(result, batch_size=batch_size, report=priced,
                               flops=result.flops * (batch_size / base))
