"""Stream-level concurrent schedules on a partitioned device.

The paper's Sec. 4.3.3 idle-resource claim ("nearly 75% of the resources
assigned to the application will stay idle for more than 77% of the
encoder execution") describes a *schedule*: one CUDA stream per modality,
each holding a share of the device, every stream launched at t=0 and
running its kernels back-to-back on its partition. This module executes
that schedule instead of short-cutting it with max/sum arithmetic:

* a :class:`StreamLoad` is the work one stream runs — its kernels' native
  (full-device) durations plus the resource share it holds;
* :class:`StreamScheduler.schedule` simulates the partitioned timeline —
  a share ``w`` scales the stream's effective roofline, so its kernels
  take ``duration / w`` on its partition — and returns a
  :class:`StreamSchedule` of per-stream busy/idle windows;
* :func:`modality_streams` / :func:`tenant_streams` build the two
  assignments the paper and the serving layer care about: one stream per
  modality inside one model's encoder stage, or one stream per tenant
  when several workloads time-share a device.

The idle-resource geometry (:meth:`StreamSchedule.idle_resource_fraction`
/ :meth:`~StreamSchedule.idle_window_fraction`) is derived from the
simulated windows; :func:`repro.core.analysis.concurrency.analyze_concurrency`
is built on it, and a tier-1 test pins the schedule-derived numbers to the
closed-form shortcut on every multi-modal workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.hw.device import DeviceSpec, get_device
from repro.hw.vectorized import DeviceParams, kernel_latency_batch
from repro.trace.columns import TraceColumns

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.engine import ExecutionReport
    from repro.trace.tracer import Trace

_SHARE_TOL = 1e-9


@dataclass(frozen=True)
class StreamLoad:
    """The work one stream executes and the resource share it holds.

    ``durations`` are *native* per-kernel seconds — what each kernel takes
    with the whole device to itself, in issue order. ``share`` is the
    fraction of the device this stream's partition holds; the scheduler
    scales the effective roofline by it, so the stream's kernels run
    ``1/share`` slower on the partition.
    """

    name: str
    durations: np.ndarray = field(repr=False)
    share: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.share <= 1.0:
            raise ValueError(f"stream share must be in (0, 1], got {self.share}")

    @property
    def native_time(self) -> float:
        """Seconds this stream's work takes with the full device."""
        return float(np.sum(self.durations))


@dataclass(frozen=True)
class StreamWindow:
    """One stream's simulated timeline on its partition.

    The stream starts at t=0 and runs its kernels back-to-back; ``start``
    and ``end`` are the per-kernel boundaries on the partition (already
    share-scaled). The stream is busy on ``[0, busy_until)`` and idle from
    then until the schedule's makespan.
    """

    name: str
    share: float
    start: np.ndarray = field(repr=False)
    end: np.ndarray = field(repr=False)

    @property
    def n_kernels(self) -> int:
        return int(self.end.size)

    @property
    def busy_until(self) -> float:
        """When this stream finishes (== its busy time: no gaps)."""
        return float(self.end[-1]) if self.end.size else 0.0

    @property
    def busy_time(self) -> float:
        return self.busy_until

    @property
    def native_time(self) -> float:
        """Full-device-equivalent seconds of the work (busy * share)."""
        return self.busy_until * self.share

    def idle_window(self, makespan: float) -> tuple[float, float]:
        """The (start, end) interval this stream sits idle in the schedule."""
        return (self.busy_until, makespan)

    def idle_time(self, makespan: float) -> float:
        return max(0.0, makespan - self.busy_until)


@dataclass(frozen=True)
class StreamSchedule:
    """A simulated concurrent timeline: every stream's windows + makespan."""

    device: DeviceSpec
    streams: dict[str, StreamWindow]
    makespan: float

    def busy_times(self) -> dict[str, float]:
        return {name: w.busy_time for name, w in self.streams.items()}

    def native_times(self) -> dict[str, float]:
        """Full-device-equivalent time per stream (share-scaling undone)."""
        return {name: w.native_time for name, w in self.streams.items()}

    @property
    def straggler(self) -> str:
        """The stream that finishes last (defines the makespan)."""
        return max(self.streams, key=lambda n: self.streams[n].busy_until)

    @property
    def total_share(self) -> float:
        return sum(w.share for w in self.streams.values())

    def idle_resource_fraction(self) -> float:
        """Idle fraction of the (resources x makespan) area of the schedule.

        Each stream's partition (``share`` of the device) is busy until the
        stream finishes and idle until the straggler does; this is the
        paper's "resources assigned to the application stay idle" area.
        """
        if self.makespan <= 0:
            return 0.0
        idle_area = sum(w.share * w.idle_time(self.makespan)
                        for w in self.streams.values())
        return idle_area / (self.total_share * self.makespan)

    def idle_window_fraction(self) -> float:
        """Mean fraction of the schedule the non-straggler streams sit idle.

        The paper's phrasing: the other ``(M-1)/M`` of the resources have
        already finished their own work and wait for the straggler.
        """
        if self.makespan <= 0 or len(self.streams) < 2:
            return 0.0
        straggler = self.straggler
        others = [w.idle_time(self.makespan) / self.makespan
                  for name, w in self.streams.items() if name != straggler]
        return float(sum(others) / len(others))

    def serial_time(self) -> float:
        """What a single full-device stream would pay for all the work."""
        return sum(w.native_time for w in self.streams.values())

    def native_makespan(self) -> float:
        """The straggler's native time: the wall time of the *ideal*
        overlap, where every stream keeps full-device speed (the paper's
        concurrent encoder time)."""
        return max(w.native_time for w in self.streams.values())

    def concurrency_speedup(self) -> float:
        """Serial time over the ideal-overlap makespan (both native, so
        the ratio is independent of how the shares were drawn)."""
        native_max = self.native_makespan()
        return self.serial_time() / native_max if native_max > 0 else 1.0


class StreamScheduler:
    """Simulates static stream-partitioned schedules on one device.

    The model matches :class:`~repro.hw.engine.ExecutionEngine`'s
    single-stream semantics per partition: each stream runs its kernels
    back-to-back, and a resource share ``w`` scales the partition's
    effective roofline (compute and bandwidth alike), so every kernel
    duration scales by ``1/w``. Shares must not oversubscribe the device
    (``sum(shares) <= 1``).
    """

    def __init__(self, device: str | DeviceSpec):
        self.device = get_device(device)

    def schedule(self, loads: Sequence[StreamLoad]) -> StreamSchedule:
        """Simulate the timeline of ``loads`` sharing this device."""
        if not loads:
            raise ValueError("need at least one stream")
        names = [load.name for load in loads]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stream names: {names}")
        total = sum(load.share for load in loads)
        if total > 1.0 + _SHARE_TOL:
            raise ValueError(
                f"stream shares oversubscribe the device: sum={total:.6f} > 1")
        windows: dict[str, StreamWindow] = {}
        makespan = 0.0
        for load in loads:
            scaled = np.asarray(load.durations, dtype=np.float64) / load.share
            end = np.cumsum(scaled)
            start = end - scaled
            window = StreamWindow(name=load.name, share=load.share,
                                  start=start, end=end)
            windows[load.name] = window
            makespan = max(makespan, window.busy_until)
        return StreamSchedule(device=self.device, streams=windows,
                              makespan=makespan)

    def schedule_trace(
        self,
        trace: "Trace | TraceColumns",
        stage: str = "encoder",
        shares: Mapping[str, float] | None = None,
    ) -> StreamSchedule:
        """Price a columnar trace on this device and schedule one stream
        per modality of ``stage`` (equal shares unless given).

        This is the trace-level entry: kernel durations come straight from
        the vectorized roofline (per-kernel launch overhead included); the
        memory/thrash model needs footprints and lives on the report-level
        path (:func:`modality_schedule`).
        """
        cols = trace if isinstance(trace, TraceColumns) else trace.columns()
        lat = kernel_latency_batch(cols, DeviceParams.from_spec(self.device))
        loads = modality_streams(
            cols, lat.total, stage=stage,
            launch_overhead=self.device.kernel_launch_overhead, shares=shares,
        )
        return self.schedule(loads)


def _resolve_shares(
    names: Sequence[str], shares: Mapping[str, float] | None
) -> dict[str, float]:
    """Equal split by default; validate user-given shares cover every stream."""
    if shares is None:
        return {name: 1.0 / len(names) for name in names}
    missing = [name for name in names if name not in shares]
    if missing:
        raise KeyError(f"no share given for streams {missing}")
    return {name: float(shares[name]) for name in names}


def modality_streams(
    cols: TraceColumns,
    durations: np.ndarray,
    stage: str = "encoder",
    launch_overhead: float = 0.0,
    shares: Mapping[str, float] | None = None,
) -> list[StreamLoad]:
    """One :class:`StreamLoad` per modality among the kernels of ``stage``.

    ``durations`` are the priced per-kernel seconds aligned with ``cols``;
    ``launch_overhead`` (per kernel) is folded into each kernel's duration,
    matching :meth:`~repro.hw.engine.ExecutionReport.modality_time`
    semantics. Kernels of the stage with no modality attribution are not
    stream work and are skipped.
    """
    stage_code = cols.stage_code(stage)
    if stage_code is None:
        raise ValueError(f"trace has no {stage!r} stage")
    in_stage = cols.stage_codes == stage_code
    modalities = [
        mod for mod in cols.modality_table
        if np.any(in_stage & (cols.modality_codes == cols.modality_code(mod)))
    ]
    if not modalities:
        raise ValueError(f"no modality-attributed kernels in stage {stage!r}")
    resolved = _resolve_shares(modalities, shares)
    loads = []
    for mod in modalities:
        idx = np.nonzero(in_stage & (cols.modality_codes == cols.modality_code(mod)))[0]
        loads.append(StreamLoad(name=mod,
                                durations=durations[idx] + launch_overhead,
                                share=resolved[mod]))
    return loads


def modality_schedule(
    report: "ExecutionReport",
    shares: Mapping[str, float] | None = None,
    stage: str = "encoder",
) -> StreamSchedule:
    """Schedule one stream per modality from a priced execution report.

    Uses the report's final per-kernel durations (thrash slowdown applied)
    plus the per-kernel launch overhead, so each stream's native time
    equals its entry in :meth:`~repro.hw.engine.ExecutionReport.modality_time`.
    """
    overhead = report.device.kernel_launch_overhead * report.slowdown
    loads = modality_streams(report.columns, report.durations, stage=stage,
                             launch_overhead=overhead, shares=shares)
    return StreamScheduler(report.device).schedule(loads)


def tenant_streams(
    reports: Mapping[str, "ExecutionReport"],
    shares: Mapping[str, float] | None = None,
) -> list[StreamLoad]:
    """One :class:`StreamLoad` per tenant: each tenant's whole trace
    (every stage) runs in its own stream on a shared device."""
    if not reports:
        raise ValueError("need at least one tenant report")
    resolved = _resolve_shares(list(reports), shares)
    loads = []
    for tenant, report in reports.items():
        overhead = report.device.kernel_launch_overhead * report.slowdown
        loads.append(StreamLoad(name=tenant,
                                durations=report.durations + overhead,
                                share=resolved[tenant]))
    return loads


def tenant_schedule(
    reports: Mapping[str, "ExecutionReport"],
    shares: Mapping[str, float] | None = None,
) -> StreamSchedule:
    """Schedule several tenants' priced traces concurrently on one device.

    All reports must be priced on the same device model (they share it).
    """
    devices = {report.device.name for report in reports.values()}
    if len(devices) > 1:
        raise ValueError(f"tenant reports span several devices: {sorted(devices)}")
    first = next(iter(reports.values()))
    return StreamScheduler(first.device).schedule(tenant_streams(reports, shares))
