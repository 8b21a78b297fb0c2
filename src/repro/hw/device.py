"""Device models for the platforms the paper evaluates on.

The paper's testbed: a GPU server with four RTX 2080Ti GPUs (one used per
experiment), a Jetson Nano (128-core Maxwell, 4 GB unified LPDDR4) and a
Jetson Orin (2048-core Ampere, 32 GB unified LPDDR5). Since this
reproduction has no GPU, each platform is an analytical
:class:`DeviceSpec` whose parameters come from the public datasheets; the
execution engine turns traced kernels into latencies/counters against
these specs. Cross-device *relative* behaviour (server vs edge, batch
scaling, capacity cliffs) is what the paper's figures compare, and that is
preserved by construction.

This module holds every number of the device model: the per-device
scalars on :class:`DeviceSpec` (energy coefficients included), the
per-category table :data:`CATEGORY_PARAMS` and the shared scalars beside
it. :mod:`repro.hw.vectorized` evaluates the model from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.trace.events import KernelCategory


class CategoryParams(NamedTuple):
    """The model's parameters for one kernel category."""

    # Peak-fraction ceiling for large kernels. GEMM and conv (implicit
    # GEMM) approach peak; element-wise ops are bandwidth-bound so their
    # compute ceiling rarely matters; reductions serialize partially.
    compute_ceiling: float
    # How close the category's instruction mix gets to the scheduler's
    # peak issue rate.
    issue_ceiling: float
    # Synchronization stall weight: reductions and batch-norm kernels
    # barrier across the block; other categories barely do.
    sync_weight: float


#: One row per kernel category, shared by every device.
CATEGORY_PARAMS: dict[KernelCategory, CategoryParams] = {
    KernelCategory.CONV: CategoryParams(0.72, 0.95, 0.06),
    KernelCategory.BNORM: CategoryParams(0.45, 0.55, 0.22),
    KernelCategory.ELEWISE: CategoryParams(0.60, 0.70, 0.02),
    KernelCategory.POOLING: CategoryParams(0.50, 0.60, 0.10),
    KernelCategory.RELU: CategoryParams(0.65, 0.75, 0.02),
    KernelCategory.GEMM: CategoryParams(0.80, 1.00, 0.05),
    KernelCategory.REDUCE: CategoryParams(0.35, 0.40, 0.30),
    KernelCategory.OTHER: CategoryParams(0.40, 0.35, 0.04),
}

# Achievable fraction of DRAM bandwidth for perfectly coalesced access.
_MEM_EFFICIENCY_CEILING = 0.85

# How much of a kernel's logical read traffic the cache hierarchy can
# absorb, as a cap on the reuse factor's effect.
_MAX_CACHE_REUSE = 48.0

# Transaction size used to convert bytes to read transactions (32B sectors).
_SECTOR_BYTES = 32.0


@dataclass(frozen=True)
class DeviceSpec:
    """An analytical GPU (or CPU) platform model."""

    name: str
    # Compute.
    peak_fp32_flops: float  # FLOP/s
    sm_count: int
    max_threads_per_sm: int
    issue_width: float  # max IPC per SM scheduler quadrant (nsight-style ipc ceiling)
    # Memory system.
    dram_bandwidth: float  # B/s
    dram_capacity: float  # bytes
    l2_bytes: float
    # Host link.
    pcie_bandwidth: float  # B/s (ignored when unified_memory)
    unified_memory: bool
    # Host/runtime overheads.
    kernel_launch_overhead: float  # seconds of CPU+runtime work per launch
    kernel_fixed_overhead: float  # seconds of device-side ramp per kernel
    transfer_latency: float  # fixed seconds per H2D/D2H call
    host_gflops: float  # CPU speed for preprocessing / data prep
    # Microarchitectural stall tendencies (dimensionless weights).
    inst_fetch_pressure: float  # grows on low-clock, small-I$ parts (edge)
    exec_dep_pressure: float  # grows when compute units are scarce
    # Energy (repro.hw.energy): technology-node figures (server-class
    # Turing, 20 nm Maxwell, Ampere-class Orin) and board-level TDPs.
    pj_per_flop: float  # dynamic compute energy
    pj_per_dram_byte: float  # DRAM access energy
    idle_watts: float  # board idle power while the device is active
    host_watts: float  # CPU power during host-side work

    @property
    def max_resident_threads(self) -> int:
        return self.sm_count * self.max_threads_per_sm

    @property
    def flops_per_byte_balance(self) -> float:
        """Roofline ridge point (FLOPs per DRAM byte)."""
        return self.peak_fp32_flops / self.dram_bandwidth


RTX_2080TI = DeviceSpec(
    name="rtx2080ti",
    peak_fp32_flops=13.45e12,
    sm_count=68,
    max_threads_per_sm=1024,
    issue_width=4.0,
    dram_bandwidth=616e9,
    dram_capacity=11e9,
    l2_bytes=5.5e6,
    pcie_bandwidth=15.75e9,  # PCIe 3.0 x16 effective
    unified_memory=False,
    kernel_launch_overhead=4.0e-6,
    kernel_fixed_overhead=1.5e-6,
    transfer_latency=10e-6,
    host_gflops=40.0,
    inst_fetch_pressure=0.05,
    exec_dep_pressure=0.15,
    pj_per_flop=9.0,
    pj_per_dram_byte=70.0,
    idle_watts=55.0,
    host_watts=65.0,
)

JETSON_NANO = DeviceSpec(
    name="jetson_nano",
    peak_fp32_flops=236e9,  # 128 Maxwell cores @ 921 MHz, FMA
    sm_count=1,
    max_threads_per_sm=2048,
    issue_width=2.0,
    dram_bandwidth=25.6e9,
    dram_capacity=4e9,
    l2_bytes=256e3,
    pcie_bandwidth=0.0,
    unified_memory=True,
    kernel_launch_overhead=18.0e-6,  # weak quad-A57 host
    kernel_fixed_overhead=4.0e-6,
    transfer_latency=4e-6,  # zero-copy, but the runtime still syncs
    host_gflops=4.0,
    inst_fetch_pressure=0.40,
    exec_dep_pressure=1.0,
    pj_per_flop=21.0,
    pj_per_dram_byte=120.0,
    idle_watts=1.5,
    host_watts=3.0,
)

JETSON_ORIN = DeviceSpec(
    name="jetson_orin",
    peak_fp32_flops=5.3e12,  # 2048 Ampere cores @ ~1.3 GHz
    sm_count=16,
    max_threads_per_sm=1536,
    issue_width=4.0,
    dram_bandwidth=204.8e9,
    dram_capacity=32e9,
    l2_bytes=4e6,
    pcie_bandwidth=0.0,
    unified_memory=True,
    kernel_launch_overhead=7.0e-6,
    kernel_fixed_overhead=2.0e-6,
    transfer_latency=5e-6,
    host_gflops=20.0,
    inst_fetch_pressure=0.12,
    exec_dep_pressure=0.22,
    pj_per_flop=6.0,
    pj_per_dram_byte=60.0,
    idle_watts=6.0,
    host_watts=10.0,
)

DEVICES: dict[str, DeviceSpec] = {
    d.name: d for d in (RTX_2080TI, JETSON_NANO, JETSON_ORIN)
}

# Aliases matching the paper's shorthand.
DEVICES["2080ti"] = RTX_2080TI
DEVICES["nano"] = JETSON_NANO
DEVICES["orin"] = JETSON_ORIN


def get_device(device: str | DeviceSpec) -> DeviceSpec:
    """Look up a device model by name (``2080ti``, ``nano``, ``orin``); a
    :class:`DeviceSpec` is returned as given."""
    if isinstance(device, DeviceSpec):
        return device
    try:
        return DEVICES[device]
    except KeyError:
        raise KeyError(f"unknown device {device!r}; available: {sorted(DEVICES)}") from None
