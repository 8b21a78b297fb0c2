"""Figures 6-7: three-stage execution time and resource usage.

Traces one inference batch per workload (dataset-free random inputs) and
prices it on the GPU-server model. The paper's observations to reproduce:

* the encoder stage generally dominates execution time, but complex
  transformer fusion (MuJoCo Push, Vision & Touch) can exceed it;
* encoder stages show higher DRAM utilization, IPC and occupancy than
  fusion/head (more computation, larger data); gld/gst efficiency is
  roughly flat across stages;
* even when transformer fusion takes ~3x the encoder's *time*, it does not
  consume more *resources* per cycle.
"""

from __future__ import annotations

from repro.hw.device import DeviceSpec
from repro.profiling.profiler import price_grid
from repro.trace.store import TraceStore
from repro.workloads.registry import list_workloads


def stage_time_analysis(
    workloads: list[str] | None = None,
    batch_size: int = 32,
    device: str | DeviceSpec = "2080ti",
    seed: int = 0,
    backend: str | None = "meta",
    store: TraceStore | None = None,
) -> dict[str, dict[str, float]]:
    """Per-stage device time (seconds) for each workload — Figure 6."""
    names = workloads or list_workloads()
    grid = price_grid(names, [batch_size], [device], seed=seed,
                      backend=backend, store=store)
    return {cell.workload: cell.report.stage_time() for cell in grid.values()}


def stage_resource_analysis(
    workloads: list[str] | None = None,
    batch_size: int = 32,
    device: str | DeviceSpec = "2080ti",
    seed: int = 0,
    backend: str | None = "meta",
    store: TraceStore | None = None,
) -> dict[str, dict[str, dict[str, float]]]:
    """Per-stage duration-weighted counters for each workload — Figure 7.

    Counter keys include ``dram_utilization``, ``achieved_occupancy``,
    ``ipc``, ``gld_efficiency`` and ``gst_efficiency`` — the five metrics
    the paper traces with Nsight Compute.
    """
    names = workloads or list_workloads()
    grid = price_grid(names, [batch_size], [device], seed=seed,
                      backend=backend, store=store)
    return {cell.workload: cell.report.stage_counters() for cell in grid.values()}
