"""Hardware simulation substrate: device models, latency, counters, stalls."""

from repro.hw.counters import KernelCounters, aggregate_counters, derive_counters
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
from repro.hw.latency import LatencyBreakdown, dram_traffic, kernel_latency, machine_fill
from repro.hw.memory import (
    MemoryBreakdown,
    capacity_pressure,
    memory_breakdown,
    memory_breakdown_columns,
    thrash_factor,
)
from repro.hw.reference import ScalarExecutionEngine, ScalarExecutionReport
from repro.hw.stalls import STALL_REASONS, aggregate_stalls, stall_breakdown
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
from repro.hw.transfer import d2h_time, h2d_time, host_data_prep_time
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
    "KernelCounters", "aggregate_counters", "derive_counters",
    "DEVICES", "DeviceSpec", "JETSON_NANO", "JETSON_ORIN", "RTX_2080TI", "get_device",
    "ExecutionEngine", "ExecutionReport", "KERNEL_SIZE_BINS", "KernelExecution",
    "ScalarExecutionEngine", "ScalarExecutionReport",
    "LatencyBreakdown", "dram_traffic", "kernel_latency", "machine_fill",
    "MemoryBreakdown", "capacity_pressure", "memory_breakdown",
    "memory_breakdown_columns", "thrash_factor",
    "STALL_REASONS", "aggregate_stalls", "stall_breakdown",
    "StreamLoad", "StreamSchedule", "StreamScheduler", "StreamWindow",
    "modality_schedule", "modality_streams", "tenant_schedule", "tenant_streams",
    "d2h_time", "h2d_time", "host_data_prep_time",
    "CounterColumns", "DeviceParams", "LatencyColumns",
    "derive_counters_batch", "kernel_latency_batch",
    "saturated_latency_batch", "stall_breakdown_batch",
]
