"""The roofline / counter / stall models, evaluated over whole trace columns.

These functions are the only shipped implementation of the device model.
They price a whole :class:`~repro.trace.columns.TraceColumns` at once:
the per-category tables in :mod:`repro.hw.latency`,
:mod:`repro.hw.counters` and :mod:`repro.hw.stalls` become lookup vectors
indexed by the category-code column, and device scalars broadcast over the
kernel axis.

Shapes: with a single :class:`DeviceParams` (scalar parameters) every
output array is ``(K,)`` for K kernels. With
:meth:`DeviceParams.from_specs` the parameters have shape ``(D, 1)`` and
device-dependent outputs broadcast to ``(D, K)`` — one pass prices a trace
on every device of a sweep. Device-independent columns (e.g. load/store
efficiency, which depends only on the access pattern) stay ``(K,)``;
:func:`device_row` slices either form down to one device.

The tables are the model. A scalar twin in ``tests/hw/reference.py``
spells the same math one kernel event at a time from the same tables, and
the golden-equivalence suite (``tests/hw/test_vectorized_equivalence.py``)
pins the two together to 1e-9 relative tolerance on every report field; a
model change edits both.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from repro.hw.counters import _ISSUE_EFFICIENCY, _SECTOR_BYTES
from repro.hw.device import DeviceSpec
from repro.hw.latency import (
    _COMPUTE_EFFICIENCY,
    _MAX_CACHE_REUSE,
    _MEM_EFFICIENCY_CEILING,
)
from repro.hw.stalls import STALL_REASONS, _SYNC_WEIGHT
from repro.trace.columns import CATEGORY_ORDER, TraceColumns


def _category_vector(table: dict) -> np.ndarray:
    """Turn a {KernelCategory: value} table into a code-indexed vector."""
    return np.array([table[cat] for cat in CATEGORY_ORDER], dtype=np.float64)


#: Lookup vectors aligned with :data:`repro.trace.columns.CATEGORY_ORDER`.
COMPUTE_EFFICIENCY_VEC = _category_vector(_COMPUTE_EFFICIENCY)
ISSUE_EFFICIENCY_VEC = _category_vector(_ISSUE_EFFICIENCY)
SYNC_WEIGHT_VEC = _category_vector(_SYNC_WEIGHT)


@dataclass(frozen=True)
class DeviceParams:
    """Device scalars in broadcast-ready form.

    Single device: plain floats/ints. Sweep (:meth:`from_specs`): each
    field is a ``(D, 1)`` array so kernel-axis arrays broadcast to
    ``(D, K)``. Each field is named after the :class:`DeviceSpec`
    attribute it is read from.
    """

    peak_fp32_flops: object
    dram_bandwidth: object
    l2_bytes: object
    max_resident_threads: object
    kernel_fixed_overhead: object
    issue_width: object
    exec_dep_pressure: object
    inst_fetch_pressure: object
    sm_count: object

    @classmethod
    def from_spec(cls, device: DeviceSpec) -> "DeviceParams":
        return cls(**{f.name: getattr(device, f.name) for f in fields(cls)})

    @classmethod
    def from_specs(cls, devices: Sequence[DeviceSpec]) -> "DeviceParams":
        return cls(**{
            f.name: np.array([getattr(d, f.name) for d in devices], dtype=np.float64)[:, None]
            for f in fields(cls)
        })


def device_row(arr: np.ndarray, d: int) -> np.ndarray:
    """Slice a possibly device-broadcast array down to device ``d``.

    Device-independent columns stay 1-D ``(K,)`` even in a sweep; this
    returns them unchanged, and takes row ``d`` of ``(D, K)`` arrays.
    """
    return arr if arr.ndim == 1 else arr[d]


@dataclass
class LatencyColumns:
    """Batch analogue of :class:`~repro.hw.latency.LatencyBreakdown`."""

    total: np.ndarray
    compute_time: np.ndarray
    memory_time: np.ndarray
    dram_bytes: np.ndarray
    compute_utilization: np.ndarray  # machine fill, 0..1
    occupancy: np.ndarray
    fixed_overhead: object  # scalar, or (D, 1) in a sweep


@dataclass
class CounterColumns:
    """Batch analogue of :class:`~repro.hw.counters.KernelCounters`."""

    duration: np.ndarray  # pre-thrash latency, like the scalar model
    dram_utilization: np.ndarray
    achieved_occupancy: np.ndarray
    ipc: np.ndarray
    gld_efficiency: np.ndarray
    gst_efficiency: np.ndarray
    l1_hit_rate: np.ndarray
    l2_hit_rate: np.ndarray
    l2_read_hit_rate: np.ndarray
    l2_write_hit_rate: np.ndarray
    fp32_ops: np.ndarray
    dram_read_bytes: np.ndarray
    read_transactions_per_second: np.ndarray


def dram_traffic_batch(cols: TraceColumns, params: DeviceParams) -> np.ndarray:
    """DRAM bytes after cache filtering of the logical traffic.

    Reads are filtered by the reuse factor (bounded by what the L2 could
    plausibly capture); writes mostly go through to DRAM.
    """
    reuse = np.clip(cols.reuse_factor, 1.0, _MAX_CACHE_REUSE)
    # A tiny working set that fits in L2 entirely gets extra filtering.
    small = (cols.bytes_read > 0) & (cols.bytes_read < params.l2_bytes)
    reuse = np.where(small, np.maximum(reuse, 2.0), reuse)
    return cols.bytes_read / reuse + cols.bytes_written


def kernel_latency_batch(cols: TraceColumns, params: DeviceParams) -> LatencyColumns:
    """Per-kernel latency on the device(s).

    The machine fill is a saturating ramp in the kernel's threads, at half
    saturation for one full wave of resident threads: small kernels on big
    devices fill little of the machine, and the same kernel on a Jetson
    Nano fills all of it.
    """
    threads = cols.threads_f
    fill = threads / (threads + params.max_resident_threads)
    occupancy = np.minimum(1.0, threads / params.max_resident_threads)

    ceiling = COMPUTE_EFFICIENCY_VEC[cols.category_codes]
    effective_flops = params.peak_fp32_flops * ceiling * np.maximum(fill, 1e-6)
    compute_time = np.where(cols.flops > 0, cols.flops / effective_flops, 0.0)

    dram_bytes = dram_traffic_batch(cols, params)
    # Memory pipelines saturate with less parallelism than the ALUs do, so
    # the bandwidth ramp rises faster than the compute ramp and has a floor.
    mem_fill = np.minimum(1.0, 0.25 + 0.75 * np.minimum(fill * 8.0, 1.0))
    effective_bw = (
        params.dram_bandwidth
        * _MEM_EFFICIENCY_CEILING
        * np.maximum(cols.coalesced_fraction, 0.05)
        * np.maximum(mem_fill, 0.25)
    )
    memory_time = np.where(dram_bytes > 0, dram_bytes / effective_bw, 0.0)

    total = np.maximum(compute_time, memory_time) + params.kernel_fixed_overhead
    return LatencyColumns(
        total=total,
        compute_time=compute_time,
        memory_time=np.broadcast_to(memory_time, total.shape),
        dram_bytes=dram_bytes,
        compute_utilization=np.broadcast_to(fill, total.shape),
        occupancy=np.broadcast_to(occupancy, total.shape),
        fixed_overhead=params.kernel_fixed_overhead,
    )


def saturated_latency_batch(cols: TraceColumns, params: DeviceParams) -> np.ndarray:
    """Kernel time at full machine utilization (throughput bound).

    No fill derating and no per-kernel ramp, just raw work over peak
    rates: the concurrent-modality makespan model's throughput bound.
    """
    ceiling = COMPUTE_EFFICIENCY_VEC[cols.category_codes]
    compute = cols.flops / (params.peak_fp32_flops * ceiling)
    memory = dram_traffic_batch(cols, params) / (
        params.dram_bandwidth * _MEM_EFFICIENCY_CEILING
    )
    return np.maximum(compute, memory)


def derive_counters_batch(
    cols: TraceColumns, params: DeviceParams, lat: LatencyColumns
) -> CounterColumns:
    """Per-kernel profiler counters from the (pre-thrash) latencies."""
    duration = lat.total
    positive = duration > 0
    busy = np.where(positive, lat.memory_time / duration, 0.0)
    achieved_bw = np.where(positive, lat.dram_bytes / duration, 0.0)
    dram_util = np.minimum(
        1.0,
        busy * np.minimum(1.0, achieved_bw / np.maximum(params.dram_bandwidth, 1.0) * 4.0),
    )

    compute_busy = np.where(positive, lat.compute_time / duration, 0.0)
    issue_efficiency = ISSUE_EFFICIENCY_VEC[cols.category_codes]
    ipc = params.issue_width * compute_busy * issue_efficiency
    ipc = np.maximum(
        ipc, 0.08 * params.issue_width * np.minimum(1.0, busy + compute_busy)
    )

    gld = cols.coalesced_fraction
    gst = np.minimum(1.0, cols.coalesced_fraction + 0.08)

    reuse = np.maximum(cols.reuse_factor, 1.0)
    l2_hit = np.minimum(0.95, 1.0 - 1.0 / reuse)
    small = (cols.bytes_read > 0) & (cols.bytes_read < params.l2_bytes)
    l2_hit = np.where(small, np.maximum(l2_hit, 0.60), l2_hit)
    l1_hit = 0.45 * l2_hit
    l2_write_hit = np.minimum(0.98, l2_hit + 0.25)

    dram_read = np.maximum(lat.dram_bytes - cols.bytes_written, 0.0)
    read_tps = np.where(positive, (cols.bytes_read / _SECTOR_BYTES) / duration, 0.0)

    return CounterColumns(
        duration=duration,
        dram_utilization=dram_util,
        achieved_occupancy=lat.occupancy,
        ipc=ipc,
        gld_efficiency=gld,
        gst_efficiency=gst,
        l1_hit_rate=l1_hit,
        l2_hit_rate=l2_hit,
        l2_read_hit_rate=l2_hit,
        l2_write_hit_rate=l2_write_hit,
        fp32_ops=cols.flops,
        dram_read_bytes=dram_read,
        read_transactions_per_second=read_tps,
    )


def stall_breakdown_batch(
    cols: TraceColumns, params: DeviceParams, lat: LatencyColumns
) -> np.ndarray:
    """Per-kernel stall-reason shares, normalized over the last axis.

    Shape ``(..., K, len(STALL_REASONS))``, the last axis in
    :data:`~repro.hw.stalls.STALL_REASONS` order.
    """
    duration = np.maximum(lat.total, 1e-12)
    mem_frac = lat.memory_time / duration
    comp_frac = lat.compute_time / duration

    reuse = np.maximum(cols.reuse_factor, 1.0)
    l2_hit = np.minimum(0.95, 1.0 - 1.0 / reuse)

    weights = {
        "Mem": mem_frac * (1.0 - l2_hit) * 1.2,
        "Cache": mem_frac * l2_hit * 0.9,
        "Exec": comp_frac * params.exec_dep_pressure * 3.0,
        "Pipe": comp_frac * 0.5,
        "Sync": SYNC_WEIGHT_VEC[cols.category_codes],
        "Inst": params.inst_fetch_pressure * (0.4 + 0.6 * comp_frac),
        "Else": np.full_like(duration, 0.08),
    }
    stacked = np.stack(
        np.broadcast_arrays(*(weights[r] for r in STALL_REASONS)), axis=-1
    )
    total = stacked.sum(axis=-1, keepdims=True)
    return stacked / total
