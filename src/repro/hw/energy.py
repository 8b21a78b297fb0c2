"""Device energy model.

The paper motivates MMBench with the energy constraints of edge inference
("supporting the inference of such diverse and heterogeneous workloads
with high energy efficiency ... is becoming a great challenge") and its
modality analysis proposes throttling encoders to save energy; the
Timeloop integration it advertises outputs latency *and energy*. This
module provides the matching energy accounting for the reproduction.

Per-kernel energy is the sum of a compute term (pJ/FLOP), a memory term
(pJ/DRAM-byte) and idle leakage over the kernel's duration; host work
burns host power. The coefficients are :class:`~repro.hw.device.DeviceSpec`
fields (``pj_per_flop``, ``pj_per_dram_byte``, ``idle_watts``,
``host_watts``), so any spec, renamed or perturbed, prices its energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hw.engine import ExecutionReport
from repro.trace.columns import NO_MODALITY


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy (joules) for one execution report."""

    compute: float
    memory: float
    idle: float
    host: float

    @property
    def total(self) -> float:
        return self.compute + self.memory + self.idle + self.host

    @property
    def device_total(self) -> float:
        return self.compute + self.memory + self.idle

    def as_dict(self) -> dict[str, float]:
        return {
            "compute": self.compute,
            "memory": self.memory,
            "idle": self.idle,
            "host": self.host,
            "total": self.total,
        }


def report_energy(report: ExecutionReport) -> EnergyBreakdown:
    """Energy of one priced inference run."""
    device = report.device
    cols = report.columns
    compute = float(cols.flops.sum()) * device.pj_per_flop * 1e-12
    memory = float(report.raw_latency.dram_bytes.sum()) * device.pj_per_dram_byte * 1e-12
    idle = report.gpu_time * device.idle_watts
    host = report.host_time * device.host_watts
    return EnergyBreakdown(compute=compute, memory=memory, idle=idle, host=host)


def _per_kernel_joules(report: ExecutionReport):
    """Device energy per kernel: compute + DRAM + idle-over-duration."""
    device = report.device
    return (
        report.columns.flops * (device.pj_per_flop * 1e-12)
        + report.raw_latency.dram_bytes * (device.pj_per_dram_byte * 1e-12)
        + report.durations * device.idle_watts
    )


def stage_energy(report: ExecutionReport) -> dict[str, float]:
    """Device energy per stage (joules), compute + memory + idle share."""
    cols = report.columns
    joules = _per_kernel_joules(report)
    sums = np.bincount(cols.stage_codes, weights=joules, minlength=len(cols.stage_table))
    counts = np.bincount(cols.stage_codes, minlength=len(cols.stage_table))
    return {
        stage: float(sums[code])
        for code, stage in enumerate(cols.stage_table)
        if counts[code]
    }


def energy_delay_product(report: ExecutionReport) -> float:
    """EDP in joule-seconds — the standard efficiency figure of merit."""
    return report_energy(report).total * report.total_time


def modality_energy(report: ExecutionReport) -> dict[str, float]:
    """Device energy per modality — the basis of the encoder-throttling
    tradeoff the paper's Sec. 4.2.3 discusses."""
    cols = report.columns
    mask = cols.modality_codes != NO_MODALITY
    joules = _per_kernel_joules(report)[mask]
    codes = cols.modality_codes[mask]
    sums = np.bincount(codes, weights=joules, minlength=len(cols.modality_table))
    counts = np.bincount(codes, minlength=len(cols.modality_table))
    return {
        mod: float(sums[code])
        for code, mod in enumerate(cols.modality_table)
        if counts[code]
    }
