"""Nsight-Compute-style per-kernel counters, derived analytically.

The paper traces five microarchitectural metrics with ``nsight compute``
(Sec. 4.3.1): DRAM utilization, achieved occupancy, IPC, global-load
efficiency and global-store efficiency; its Figure-9 kernel deep dives add
L1/L2 hit rates, fp32 op counts, DRAM read bytes and read transactions.
:func:`repro.hw.vectorized.derive_counters_batch` derives each of those
from the same underlying quantities the real counters measure; this module
holds the counter record and its per-category table.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.trace.events import KernelCategory

# Transaction size used to convert bytes to read transactions (32B sectors).
_SECTOR_BYTES = 32.0

# Issue-rate ceiling per kernel category: how close each category's
# instruction mix gets to the scheduler's peak issue rate.
_ISSUE_EFFICIENCY: dict[KernelCategory, float] = {
    KernelCategory.GEMM: 1.0,
    KernelCategory.CONV: 0.95,
    KernelCategory.BNORM: 0.55,
    KernelCategory.ELEWISE: 0.70,
    KernelCategory.POOLING: 0.60,
    KernelCategory.RELU: 0.75,
    KernelCategory.REDUCE: 0.40,
    KernelCategory.OTHER: 0.35,
}


@dataclass(frozen=True)
class KernelCounters:
    """Simulated profiler counters for one kernel execution."""

    duration: float  # seconds
    dram_utilization: float  # 0..1 (nsight reports 0..10; we keep a fraction)
    achieved_occupancy: float  # 0..1
    ipc: float  # instructions per cycle per SM scheduler
    gld_efficiency: float  # 0..1
    gst_efficiency: float  # 0..1
    l1_hit_rate: float  # 0..1
    l2_hit_rate: float  # 0..1
    l2_read_hit_rate: float
    l2_write_hit_rate: float
    fp32_ops: float
    dram_read_bytes: float
    read_transactions_per_second: float
