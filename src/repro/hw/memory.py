"""Peak-memory accounting: model / dataset / intermediate (Figure 13).

The paper decomposes peak memory into three components and shows that the
model's share is batch-invariant while dataset and intermediate grow
linearly with batch size — and that multi-modal DNNs carry a larger
intermediate share (more modalities, plus fusion features), making them
hit GPU capacity earlier.

:func:`memory_breakdown_columns` derives the same decomposition from a
trace's columns: model bytes come from the parameter count, dataset bytes
from the input batch, and the intermediate component from the largest
per-stage sum of activation outputs — a standard proxy for the live set
under a stage-granular allocator, which keeps the two properties Figure 13
demonstrates: linearity in batch size and a larger share for multi-modal
models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hw.device import DeviceSpec
from repro.trace.columns import TraceColumns


@dataclass(frozen=True)
class MemoryBreakdown:
    """Peak memory decomposition in bytes."""

    model: float
    dataset: float
    intermediate: float

    @property
    def total(self) -> float:
        return self.model + self.dataset + self.intermediate

    def as_dict(self) -> dict[str, float]:
        return {
            "model": self.model,
            "dataset": self.dataset,
            "intermediate": self.intermediate,
            "total": self.total,
        }


def memory_breakdown_columns(
    cols: TraceColumns, model_bytes: float, input_bytes: float
) -> MemoryBreakdown:
    """Decompose peak memory for one inference batch from its columns."""
    if cols.n:
        stage_sums = np.bincount(cols.stage_codes, weights=cols.bytes_written,
                                 minlength=len(cols.stage_table))
        intermediate = float(stage_sums.max())
    else:
        intermediate = 0.0
    return MemoryBreakdown(model=float(model_bytes), dataset=float(input_bytes),
                           intermediate=intermediate)


def capacity_pressure(breakdown: MemoryBreakdown, device: DeviceSpec) -> float:
    """Fraction of device memory the run needs (>1 means over capacity)."""
    capacity = device.dram_capacity
    if device.unified_memory:
        # The OS, CUDA runtime and host process share the same physical
        # memory on Jetson boards; reserve a fixed cut for them.
        capacity = capacity * 0.75 - 0.5e9
    return breakdown.total / max(capacity, 1.0)


def thrash_factor(pressure: float) -> float:
    """Latency multiplier once a run approaches/overflows device memory.

    Below 80% pressure there is no penalty. Past that, paging and allocator
    retries inflate time sharply — the mechanism behind the Jetson Nano's
    latency *increase* at batch 320 in Figure 14.
    """
    if pressure <= 0.8:
        return 1.0
    # Quadratic blow-up past the knee; capped to keep the model sane.
    over = pressure - 0.8
    return min(1.0 + 6.0 * over * over + 2.0 * over, 12.0)
