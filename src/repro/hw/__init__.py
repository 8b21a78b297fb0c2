"""Hardware simulation substrate: device models, latency, counters, stalls."""

from repro.hw.counters import KernelCounters
from repro.hw.device import (
    DEVICES,
    DeviceSpec,
    JETSON_NANO,
    JETSON_ORIN,
    RTX_2080TI,
    get_device,
)
from repro.hw.energy import (
    EnergyBreakdown,
    energy_delay_product,
    modality_energy,
    report_energy,
    stage_energy,
)
from repro.hw.engine import (
    ExecutionEngine,
    ExecutionReport,
    KERNEL_SIZE_BINS,
    KernelExecution,
)
from repro.hw.latency import LatencyBreakdown
from repro.hw.memory import (
    MemoryBreakdown,
    capacity_pressure,
    memory_breakdown_columns,
    thrash_factor,
)
from repro.hw.stalls import STALL_REASONS
from repro.hw.streams import (
    StreamLoad,
    StreamSchedule,
    StreamScheduler,
    StreamWindow,
    modality_schedule,
    modality_streams,
    tenant_schedule,
    tenant_streams,
)
from repro.hw.transfer import h2d_time
from repro.hw.vectorized import (
    CounterColumns,
    DeviceParams,
    LatencyColumns,
    derive_counters_batch,
    kernel_latency_batch,
    saturated_latency_batch,
    stall_breakdown_batch,
)

__all__ = [
    "EnergyBreakdown", "energy_delay_product", "modality_energy", "report_energy", "stage_energy",
    "KernelCounters",
    "DEVICES", "DeviceSpec", "JETSON_NANO", "JETSON_ORIN", "RTX_2080TI", "get_device",
    "ExecutionEngine", "ExecutionReport", "KERNEL_SIZE_BINS", "KernelExecution",
    "LatencyBreakdown",
    "MemoryBreakdown", "capacity_pressure", "memory_breakdown_columns", "thrash_factor",
    "STALL_REASONS",
    "StreamLoad", "StreamSchedule", "StreamScheduler", "StreamWindow",
    "modality_schedule", "modality_streams", "tenant_schedule", "tenant_streams",
    "h2d_time",
    "CounterColumns", "DeviceParams", "LatencyColumns",
    "derive_counters_batch", "kernel_latency_batch",
    "saturated_latency_batch", "stall_breakdown_batch",
]
