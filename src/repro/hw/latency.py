"""Roofline-style kernel latency model with size-dependent efficiency.

A kernel's device time is ``max(compute time, memory time)`` plus a small
fixed ramp. Both components are derated by utilization factors that fall
off for small kernels — the mechanism behind the paper's batch-size case
study (Sec. 5.1): small-batch workloads launch many sub-10-microsecond
kernels that cannot fill the machine, so a 10x batch increase yields far
less than a 10x latency reduction.

The tables below are the model's per-category parameters;
:func:`repro.hw.vectorized.kernel_latency_batch` evaluates the model over
whole trace columns.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.trace.events import KernelCategory

# Peak-fraction ceilings per kernel category for large kernels. GEMM and
# conv (implicit GEMM) approach peak; element-wise ops are bandwidth-bound
# so their compute ceiling rarely matters; reductions serialize partially.
_COMPUTE_EFFICIENCY: dict[KernelCategory, float] = {
    KernelCategory.GEMM: 0.80,
    KernelCategory.CONV: 0.72,
    KernelCategory.BNORM: 0.45,
    KernelCategory.ELEWISE: 0.60,
    KernelCategory.POOLING: 0.50,
    KernelCategory.RELU: 0.65,
    KernelCategory.REDUCE: 0.35,
    KernelCategory.OTHER: 0.40,
}

# Achievable fraction of DRAM bandwidth for perfectly coalesced access.
_MEM_EFFICIENCY_CEILING = 0.85

# How much of a kernel's logical read traffic the cache hierarchy can
# absorb, as a cap on the reuse factor's effect.
_MAX_CACHE_REUSE = 48.0


@dataclass(frozen=True)
class LatencyBreakdown:
    """Latency components for one kernel on one device."""

    total: float
    compute_time: float
    memory_time: float
    fixed_overhead: float
    dram_bytes: float
    compute_utilization: float  # 0..1 fraction of the machine the kernel fills
    occupancy: float

    @property
    def bound(self) -> str:
        return "memory" if self.memory_time >= self.compute_time else "compute"
