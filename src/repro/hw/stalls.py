"""Warp-stall attribution model (Figure 15).

Nsight classifies the reasons warps could not issue each cycle. The paper
buckets them into seven groups: cache dependency, memory dependency,
execution dependency, busy pipeline, synchronization, instruction not
fetched, and everything else. Its key edge-migration finding is that the
dominant stall reasons *shift* between platforms: memory/cache dependency
dominates on the 2080Ti server, while execution dependency and instruction
fetch dominate on the compute-starved Jetson Nano.

We reproduce that mechanism: stall shares are derived from the kernel's
roofline balance on the device (memory-bound time begets Mem/Cache stalls,
compute-bound time begets Exec/Pipe stalls) modulated by device pressure
parameters that encode how starved the machine's front end and ALUs are.
:func:`repro.hw.vectorized.stall_breakdown_batch` evaluates it.
"""

from __future__ import annotations

from repro.trace.events import KernelCategory

STALL_REASONS = ("Cache", "Mem", "Exec", "Pipe", "Sync", "Inst", "Else")

# Category-intrinsic synchronization weight: reductions and batch-norm
# kernels barrier across the block; other categories barely do.
_SYNC_WEIGHT: dict[KernelCategory, float] = {
    KernelCategory.REDUCE: 0.30,
    KernelCategory.BNORM: 0.22,
    KernelCategory.POOLING: 0.10,
    KernelCategory.GEMM: 0.05,
    KernelCategory.CONV: 0.06,
    KernelCategory.ELEWISE: 0.02,
    KernelCategory.RELU: 0.02,
    KernelCategory.OTHER: 0.04,
}
