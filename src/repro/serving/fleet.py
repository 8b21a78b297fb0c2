"""The serving engine: device groups, an event loop over them, autoscaling.

Every serving simulation runs here. :func:`simulate_fleet` serves a
tenant mix on homogeneous :class:`DeviceGroup`\\ s
(``DeviceGroup("2080ti", 64)``); the classic entry points
(:func:`repro.serving.simulator.simulate` and
:func:`~repro.serving.simulator.simulate_mixed`) map each device slot to
a one-replica group keyed by its slot label (``2080ti#0``) and run the
same engine, so ranking, faults and per-slot statistics stay per slot.
All three return one :class:`ServingReport`, built from the engine by
one function (``_report``).

The loop processes one event at a time in the order a time-ordered
event heap would pop it: the first arrival, then fault edges, then
retries, then everything else (completions, policy wake-ups, stall ends,
autoscale ticks), each followed by one offer round. It exploits the
structure of a fleet:

* arrivals come in as columnar arrays straight from
  :func:`repro.serving.scenarios.scenario_columns` and are absorbed in
  bulk with ``searchsorted`` — under saturation, one step swallows
  thousands of arrivals without visiting them individually; an arrival
  is visited only while some replica is idle;
* each group keeps its replica free times in a list plus a min-heap of
  its idle replicas, so replica selection pops the lowest idle index
  and completions drain off one fleet-wide heap. Per-batch work runs on
  Python scalars: on the 1-64 element arrays a batch touches, numpy's
  call overhead costs more than the arithmetic;
* per-request timing (latencies, queue and formation waits) is filled
  after the loop, one vectorized pass per tenant over its batch records;
  a report's ``table``, every request's outcome as one
  :class:`~repro.serving.request.RequestTable`, is built from all
  tenants' records at once, and only when first read;
* batch latencies come from each anchored cost model's dense table per
  (tenant, device) (:meth:`~repro.serving.costmodel.AnchoredCostModel.curve`;
  profiled curves are one module-level cache shared across runs), so
  the hot loop never re-enters the interpolator.

Routing goes through the caller's :class:`~repro.serving.router.Router`
and ranks *groups*, not replicas: every replica of a group shares one
latency curve, so ranking 64 identical slots is 63 wasted cost-model
calls. On top of the core loop:

* **cross-group hop costs** — when the router moves a tenant's traffic
  to a different group than its previous batch, the batch pays a
  host-to-device transfer (:func:`repro.hw.transfer.h2d_time`) of
  ``hop_bytes`` per request on the destination device;
* **reactive autoscaling** — an :class:`AutoscalePolicy` evaluated on a
  fixed interval scales groups out on queue depth (or windowed p99) and
  back in on idleness, with cooldowns and per-group min/max replicas;
  every action lands in the report as a :class:`ScalingEvent`;
* **faults** — a :class:`~repro.serving.faults.FaultPlan` names groups.
  ``DeviceDown``/``DeviceRecover`` and ``TransientStall`` apply to every
  replica of the group, one replica at a time in index order, so a
  multi-replica group behaves exactly like its expansion into slots: a
  down replica aborts its in-flight batch and the batch's requests are
  retried or shed under a :class:`~repro.serving.faults.RetryPolicy`; a
  stalled replica finishes its batch late or, idle, takes no work until
  the stall ends. ``ThermalThrottle`` scales the whole group's latency
  curves for its window. Deadline shedding and tenants'
  :class:`~repro.serving.faults.DegradedMode` run in the same loop.

A run with no fault plan, no retry policy and no degraded tenant keeps
no per-request state: batches are contiguous slices of a tenant's
queue, recorded once each.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
import numbers
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.hw.transfer import h2d_time
from repro.serving.costmodel import AnchoredCostModel, CallableCostModel
from repro.serving.faults import (DegradedMode, FaultPlan, FaultRuntime,
                                  FaultStats, RetryPolicy)
from repro.serving.policies import BatchingPolicy
from repro.serving.request import (Request, RequestTable, check_arrivals,
                                   is_finite_number)
from repro.serving.router import EarliestFinishRouter, Router

__all__ = [
    "AutoscalePolicy",
    "DeviceGroup",
    "FleetConfig",
    "FleetConfigError",
    "GroupStats",
    "ScalingEvent",
    "ServingReport",
    "TenantSpec",
    "TenantStats",
    "parse_autoscale",
    "parse_groups",
    "simulate_fleet",
]


@dataclass
class TenantSpec:
    """One tenant (workload) of a serving simulation.

    ``cost`` is the tenant's own cost model (a bare ``batch_time(k)``
    callable is wrapped automatically), ``policy`` its batching policy and
    ``slo`` its end-to-end latency target (drives the report's per-tenant
    attainment column). ``weight`` is the tenant's share of the traffic
    mix — consumed by the scenario generators in
    :mod:`repro.serving.scenarios`, not by the event loop.
    """

    name: str
    cost: object
    policy: BatchingPolicy
    slo: float | None = None
    weight: float = 1.0
    # Optional graceful-degradation mode (repro.serving.faults.DegradedMode):
    # under sustained queue pressure the tenant serves with a shed modality
    # encoder at a reduced latency factor, trading quoted accuracy for drain.
    degraded: DegradedMode | None = None

    def __post_init__(self):
        if callable(self.cost) and not hasattr(self.cost, "latency"):
            self.cost = CallableCostModel(self.cost)
        if not is_finite_number(self.weight) or self.weight <= 0:
            raise ValueError(
                f"tenant weight must be positive and finite, got {self.weight!r}")
        if self.slo is not None and (not is_finite_number(self.slo)
                                     or self.slo <= 0):
            raise ValueError(
                f"tenant slo must be positive and finite, got {self.slo!r}")
        if self.degraded is not None and not isinstance(self.degraded, DegradedMode):
            raise TypeError(f"degraded must be a DegradedMode, "
                            f"got {type(self.degraded).__name__}")


@dataclass(frozen=True)
class TenantStats:
    """Per-tenant latency / SLO breakdown of one simulation.

    ``n_requests``, throughput, the percentiles and the means cover the
    tenant's *completed* requests. ``slo_attainment`` divides the
    completed requests within the SLO by the requests the tenant was
    *issued*, so a shed request counts as a miss, as in the report's own
    ``slo_attainment``; it is 1.0 for a tenant issued nothing. The
    tenant's sheds are in ``report.fault_stats.tenants[name].shed``.
    """

    tenant: str
    n_requests: int  # completed requests
    slo: float | None
    throughput: float  # this tenant's requests / overall makespan
    mean_latency: float
    p50_latency: float
    p95_latency: float
    p99_latency: float
    mean_queue_time: float
    slo_attainment: float | None  # None when the tenant declared no SLO


class FleetConfigError(ValueError):
    """A fleet configuration is malformed; the message names the offender."""


def _is_int(value) -> bool:
    """True for an integer that is not a bool (``True`` is not a count)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class DeviceGroup:
    """``replicas`` interchangeable instances of one device model.

    ``pool`` is the provisioned ceiling the autoscaler may scale out to;
    it defaults to ``replicas`` (no headroom). The simulation starts
    with ``replicas`` active.
    """

    device: str
    replicas: int
    pool: int | None = None

    def __post_init__(self):
        if not self.device:
            raise FleetConfigError("device group needs a device name")
        if not _is_int(self.replicas):
            raise FleetConfigError(
                f"group {self.device!r} replicas must be an integer, "
                f"got {self.replicas!r}")
        if self.pool is not None and not _is_int(self.pool):
            raise FleetConfigError(
                f"group {self.device!r} pool must be an integer, "
                f"got {self.pool!r}")
        if self.replicas < 1:
            raise FleetConfigError(
                f"group {self.device!r} needs at least 1 replica, "
                f"got {self.replicas}")
        if self.pool is not None and self.pool < self.replicas:
            raise FleetConfigError(
                f"group {self.device!r} pool ({self.pool}) smaller than its "
                f"initial replicas ({self.replicas})")

    @property
    def capacity(self) -> int:
        """Provisioned replica ceiling (``pool`` or ``replicas``)."""
        return self.replicas if self.pool is None else self.pool


@dataclass(frozen=True)
class AutoscalePolicy:
    """Reactive per-group scaling, evaluated every ``interval`` seconds.

    * **scale-out** when the fleet-wide metric (``"queue"`` = requests
      queued, ``"p99"`` = p99 latency of batches dispatched since the
      last evaluation) exceeds ``threshold`` — the group grows by
      ``step`` replicas up to ``max_replicas`` (never past its pool);
    * **scale-in** when nothing is queued and at least
      ``idle_fraction`` of the group's active replicas sit idle — the
      group shrinks by ``step`` down to ``min_replicas``. Scale-in only
      retires *capacity*: a busy replica keeps draining its in-flight
      batch (scaling never aborts anything).
    * ``cooldown`` suppresses any action on a group within ``cooldown``
      seconds of its previous action.
    """

    metric: str = "queue"
    threshold: float = 64.0
    interval: float = 0.05
    cooldown: float = 0.25
    step: int = 1
    min_replicas: int = 1
    max_replicas: int | None = None
    idle_fraction: float = 0.5

    def __post_init__(self):
        if self.metric not in ("queue", "p99"):
            raise FleetConfigError(
                f"autoscale metric must be 'queue' or 'p99', got {self.metric!r}")
        for name in ("threshold", "interval", "cooldown"):
            if not is_finite_number(getattr(self, name)):
                raise FleetConfigError(
                    f"autoscale {name} must be a finite number, "
                    f"got {getattr(self, name)!r}")
        counts = {"step": self.step, "min_replicas": self.min_replicas}
        if self.max_replicas is not None:
            counts["max_replicas"] = self.max_replicas
        for name, value in counts.items():
            if not _is_int(value):
                raise FleetConfigError(
                    f"autoscale {name} must be an integer, got {value!r}")
        if self.threshold <= 0:
            raise FleetConfigError(
                f"autoscale threshold must be positive, got {self.threshold}")
        if self.interval <= 0:
            raise FleetConfigError(
                f"autoscale interval must be positive, got {self.interval}")
        if self.cooldown < 0:
            raise FleetConfigError(
                f"autoscale cooldown must be non-negative, got {self.cooldown}")
        if self.step < 1:
            raise FleetConfigError(
                f"autoscale step must be >= 1, got {self.step}")
        if self.min_replicas < 1:
            raise FleetConfigError(
                f"autoscale min_replicas must be >= 1, got {self.min_replicas}")
        if self.max_replicas is not None and self.max_replicas < self.min_replicas:
            raise FleetConfigError(
                f"autoscale max_replicas ({self.max_replicas}) below "
                f"min_replicas ({self.min_replicas})")
        if not 0 < self.idle_fraction <= 1:
            raise FleetConfigError(
                f"autoscale idle_fraction must be in (0, 1], "
                f"got {self.idle_fraction}")


@dataclass(frozen=True)
class ScalingEvent:
    """One autoscaler action: group ``group`` went ``before`` → ``after``."""

    time: float
    group: str
    before: int
    after: int
    reason: str


@dataclass(frozen=True)
class GroupStats:
    """Per-group accounting of one serving simulation; a classic device
    slot is a one-replica group keyed by its slot label (``2080ti#1``)."""

    group: str  # group label: a device model name, or a classic slot label
    device: str  # device model name the group runs
    replicas: int  # active replicas at the end of the run
    peak_replicas: int
    mean_replicas: float  # time-weighted mean active replicas (occupancy)
    batches: int
    requests: int
    busy_time: float
    utilization: float  # busy time / (mean_replicas * makespan)
    mean_batch: float
    batch_histogram: dict[int, int]  # batch size -> completed batches
    hop_batches: int  # batches that paid a cross-group transfer
    hop_time: float  # total transfer seconds added to those batches


@dataclass(frozen=True)
class ServingReport:
    """Everything one serving simulation produced, whichever entry point
    ran it (:func:`simulate_fleet`, ``simulate`` or ``simulate_mixed``).
    Latency statistics cover completed requests; ``n_requests`` counts
    every issued request, sheds included.
    """

    policy: str
    router: str
    n_requests: int
    arrival_rate: float | None
    makespan: float
    throughput: float
    mean_latency: float
    p50_latency: float
    p95_latency: float
    p99_latency: float
    mean_queue_time: float
    mean_formation_wait: float
    mean_service_time: float
    group_stats: dict[str, GroupStats]
    # Builds every request's outcome as columns; ``table`` calls it once.
    request_table: Callable[[], RequestTable] = field(repr=False, compare=False)
    tenant_stats: dict[str, TenantStats] = field(default_factory=dict)
    scaling_events: tuple[ScalingEvent, ...] = ()
    latencies: np.ndarray = field(default_factory=lambda: np.empty(0),
                                  repr=False, compare=False)  # completed, by tenant
    # Background fine-tuning jobs that shared the devices during the run
    # (see repro.serving.finetune); empty for pure-inference simulations.
    finetune_stats: dict = field(default_factory=dict)
    inference_slowdown: float = 1.0  # batch-latency multiplier the jobs imposed
    # What the fault plan, retry policy and degraded modes did to the
    # run (see repro.serving.faults); None when there were none.
    fault_stats: FaultStats | None = None

    @functools.cached_property
    def table(self) -> RequestTable:
        """Every request's outcome as columns, built on first read."""
        return self.request_table()

    @functools.cached_property
    def requests(self) -> list[Request]:
        """Every request as a :class:`Request`, in stream order, built
        from ``table`` on first read."""
        return self.table.to_requests()

    @property
    def device_stats(self) -> dict[str, GroupStats]:
        """``group_stats`` under its classic name (one entry per slot)."""
        return self.group_stats

    def slo_attainment(self, slo: float) -> float:
        """Fraction of issued requests whose end-to-end latency met ``slo``.

        Shed requests never complete and count as misses; an empty
        simulation misses nothing (attainment is vacuously 1).
        """
        if not self.n_requests:
            return 1.0
        return float((self.latencies <= slo).sum()) / self.n_requests

    @property
    def completed(self) -> int:
        """Requests that actually finished (``n_requests`` minus sheds)."""
        shed = self.fault_stats.shed if self.fault_stats is not None else 0
        return self.n_requests - shed

    def batch_sizes_used(self) -> dict[str, list[int]]:
        """Distinct dispatched batch sizes per group (sorted)."""
        return {name: sorted(s.batch_histogram)
                for name, s in self.group_stats.items()}

    @property
    def total_utilization(self) -> float:
        """Busy time over replica time: summed busy time / (summed mean
        replicas x makespan); for one-replica slots, the mean over slots."""
        busy = sum(s.busy_time for s in self.group_stats.values())
        replicas = sum(s.mean_replicas for s in self.group_stats.values())
        return busy / (replicas * self.makespan) if self.makespan > 0 else 0.0


@dataclass(frozen=True)
class FleetConfig:
    """Declarative fleet configuration — the lint artifact.

    Bundles what :func:`simulate_fleet` is about to run so the MMB31x
    rules (:mod:`repro.lint.fleet_rules`) can vet it statically:
    oversubscribed autoscale bounds, thrash-prone cooldowns, fault plans
    naming unknown groups.
    """

    groups: tuple[DeviceGroup, ...]
    autoscale: AutoscalePolicy | None = None
    faults: FaultPlan | None = None


def parse_groups(spec: str) -> tuple[DeviceGroup, ...]:
    """Parse ``"2080ti:64,orin:32,nano:16"`` into device groups.

    Each entry is ``DEVICE:REPLICAS`` or ``DEVICE:REPLICAS:POOL`` (the
    autoscaler's provisioned ceiling); a device may head one entry only.
    """
    groups: list[DeviceGroup] = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        if len(parts) not in (2, 3):
            raise FleetConfigError(
                f"bad group spec {entry!r}; expected DEVICE:REPLICAS[:POOL]")
        try:
            replicas = int(parts[1])
            pool = int(parts[2]) if len(parts) == 3 else None
        except ValueError:
            raise FleetConfigError(
                f"bad group spec {entry!r}; replicas/pool must be integers"
            ) from None
        if any(g.device == parts[0] for g in groups):
            raise FleetConfigError(
                f"duplicate group device {parts[0]!r} in spec {spec!r}; "
                f"give each device one DEVICE:REPLICAS[:POOL] entry")
        groups.append(DeviceGroup(parts[0], replicas, pool))
    if not groups:
        raise FleetConfigError(f"no device groups in spec {spec!r}")
    return tuple(groups)


def parse_autoscale(spec: str, min_replicas: int = 1,
                    max_replicas: int | None = None) -> AutoscalePolicy:
    """Parse ``"queue:64"`` / ``"p99:0.1:0.05:0.25"`` into a policy.

    The spec is ``METRIC:THRESHOLD[:INTERVAL[:COOLDOWN]]``; the replica
    bounds come in separately (``--autoscale-min``/``--autoscale-max``
    on the CLI).
    """
    parts = spec.split(":")
    if len(parts) < 2 or len(parts) > 4:
        raise FleetConfigError(
            f"bad autoscale spec {spec!r}; expected "
            f"METRIC:THRESHOLD[:INTERVAL[:COOLDOWN]]")
    kwargs: dict = {"metric": parts[0]}
    try:
        kwargs["threshold"] = float(parts[1])
        if len(parts) > 2:
            kwargs["interval"] = float(parts[2])
        if len(parts) > 3:
            kwargs["cooldown"] = float(parts[3])
    except ValueError:
        raise FleetConfigError(
            f"bad autoscale spec {spec!r}; threshold/interval/cooldown "
            f"must be numbers") from None
    return AutoscalePolicy(min_replicas=min_replicas,
                           max_replicas=max_replicas, **kwargs)


# ---------------------------------------------------------------------------
# Per-tenant latency adapters
# ---------------------------------------------------------------------------


class _GroupCost:
    """Per-tenant cost adapter the policies and the router see.

    Groups are addressed by label; ``devices`` maps a label to its device
    model name (absent labels name their device, as fleet groups do).
    ``underlying`` exposes the tenant's cost model and
    :meth:`device_name` the device behind a label, so
    :class:`~repro.serving.policies.AdaptiveSLOPolicy`'s drain memo keys
    on the model and the device and survives across runs.

    Latencies come from the cost model's ``curve`` table when it has one,
    else from a per-query memo. They multiply, in order, by ``scale`` (the
    slowdown background fine-tuning jobs impose; folded into the cached
    values, which is the same single multiplication) and the group's live
    throttle factor from the shared ``throttle`` dict. Both are uniform in
    the batch size, so the drain memo stays valid under them.
    """

    __slots__ = ("underlying", "_devices", "_tables", "_memo", "_throttle",
                 "_scale")

    def __init__(self, cost, devices: dict[str, str] | None = None,
                 throttle: dict[str, float] | None = None, scale: float = 1.0):
        self.underlying = cost
        self._devices = devices or {}
        # label -> dense table; () when the cost model has none.
        self._tables: dict[str, tuple[float, ...]] = {}
        self._memo: dict[tuple[str, int], float] = {}
        self._throttle = throttle if throttle is not None else {}
        self._scale = scale

    def latency(self, label: str, batch_size: int) -> float:
        table = self._tables.get(label)
        if table is None:
            table = (self.underlying.curve(self.device_name(label))
                     if isinstance(self.underlying, AnchoredCostModel) else ())
            if self._scale != 1.0:
                table = tuple(t * self._scale for t in table)
            self._tables[label] = table
        if 1 <= batch_size <= len(table):
            base = table[batch_size - 1]
        else:
            key = (label, batch_size)
            base = self._memo.get(key)
            if base is None:
                base = float(self.underlying.latency(self.device_name(label),
                                                     batch_size))
                if self._scale != 1.0:
                    base *= self._scale
                self._memo[key] = base
        if self._throttle:
            factor = self._throttle.get(label)
            if factor is not None:
                base *= factor
        return base

    def device_name(self, label: str) -> str:
        """Device model name behind a group label."""
        return self._devices.get(label, label)


class _DegradableCost(_GroupCost):
    """The adapter of a tenant with a degraded mode: latencies further
    multiply by ``extra``, the mode's latency factor while the tenant is
    degraded (1 otherwise), after every other factor."""

    __slots__ = ("extra",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.extra = 1.0

    def latency(self, label: str, batch_size: int) -> float:
        base = super().latency(label, batch_size)
        if self.extra != 1.0:
            base *= self.extra
        return base


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

# Event kinds, in the order they run when they fall on one instant.
_FIRST, _EDGE, _RETRY, _PLAIN = range(4)


class _FleetEngine:
    """Event loop over device groups.

    Each step handles one event — the first arrival, a fault edge, a
    retry, or a plain instant (completions, wake-ups, stall ends, ticks,
    arrival visits) — then absorbs everything due, sheds expired
    requests and offers queued work to idle groups until every policy
    holds.

    Per-batch work runs on Python scalars, lists and heaps: the batches
    are few (thousands per 10k requests) and numpy's call overhead on
    1-64 element arrays costs more than their arithmetic. Each batch
    appends one record to its tenant's lists; the per-request columns
    are filled from those records after the loop. A tenant's queue is
    the next slice of its arrival stream, behind an explicit ``front``
    deque that only retried requests ever enter; without faults the
    front stays empty and a batch is always a contiguous slice, so no
    per-request Python objects exist anywhere.
    """

    def __init__(self, tenants: Sequence[TenantSpec],
                 groups: Sequence[DeviceGroup], columns,
                 autoscale: AutoscalePolicy | None,
                 faults: FaultPlan | None,
                 hop_bytes: float, router: Router,
                 retry: RetryPolicy | None = None, *,
                 index: np.ndarray | None = None,
                 devices: dict[str, str] | None = None,
                 slowdown: float = 1.0):
        self.tenants = list(tenants)
        self.groups = list(groups)
        self.autoscale = autoscale
        self.hop_bytes = float(hop_bytes)
        self.router = router

        n = len(columns)
        self.n = n
        self.arr_all = columns.arrivals
        self.codes = columns.codes

        # Per-tenant views of the stream, in tenant order (see
        # _tenant_order). Without faults a batch is always the next slice
        # of one tenant's queue, so a tenant's batch records (finish,
        # size, dispatch instant, replica idle time) are enough to rebuild
        # every request's timing after the loop; see request_table.
        K = len(self.tenants)
        order = self._tenant_order()
        bounds = np.zeros(K + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.codes, minlength=K), out=bounds[1:])
        self.bounds = bounds
        self.index = index
        self.arr_t = [self.arr_all[order[bounds[t]:bounds[t + 1]]]
                      for t in range(K)]
        # Each tenant's completed latencies, filled by _fill_requests, and
        # the stream positions of the completed requests in the same
        # order, set by request_table.
        self.lat_t: list[np.ndarray] = []
        self.done_order: np.ndarray | None = None
        self.arr_sum = [0.0] * K   # sum of completed requests' arrivals
        self.disp_sum = [0.0] * K  # sum of dispatch instants (x batch size)
        self.form_sum = 0.0        # global formation-wait sum
        self.serv_sum = 0.0        # global service-time sum
        self.head = [0] * K
        self.tail = [0] * K
        self.front: list[deque] = [deque() for _ in range(K)]
        # Arrival of each tenant's queue head, as a Python float.
        self.head_arr = [float(a[0]) if a.size else math.inf
                         for a in self.arr_t]
        self.last_group: list[int | None] = [None] * K
        self.b_finish: list[list[float]] = [[] for _ in range(K)]
        self.b_size: list[list[int]] = [[] for _ in range(K)]
        self.b_now: list[list[float]] = [[] for _ in range(K)]
        self.b_idle: list[list[float]] = [[] for _ in range(K)]
        self.b_group: list[list[int]] = [[] for _ in range(K)]
        self.b_replica: list[list[int]] = [[] for _ in range(K)]

        # Per-group replica state: free times over the full provisioned
        # pool; ``act`` bounds the autoscaler-active prefix.
        G = len(self.groups)
        self.glabel = [g.device for g in self.groups]
        self._gindex = {label: g for g, label in enumerate(self.glabel)}
        devices = devices or {}
        self.gdev = [devices.get(label, label) for label in self.glabel]
        self.free = [[0.0] * g.capacity for g in self.groups]
        self.act = [g.replicas for g in self.groups]
        self.batches = [0] * G
        self.requests = [0] * G
        self.busy = [0.0] * G
        self.hop_batches = [0] * G
        self.hop_time = [0.0] * G
        self.peak = [g.replicas for g in self.groups]
        self.occ_int = [0.0] * G  # integral of act over time
        self.occ_last = [0.0] * G
        self.last_action = [-math.inf] * G
        self.scaling: list[ScalingEvent] = []

        self.throttle: dict[str, float] = {}
        self.policies = [spec.policy for spec in self.tenants]
        self.tcost = [
            (_GroupCost if spec.degraded is None else _DegradableCost)(
                spec.cost, devices, self.throttle, slowdown)
            for spec in self.tenants
        ]

        self.dispatched = 0  # requests on a replica or done, net of aborts
        self.makespan = 0.0
        self.next_arr = 0
        self.first: float | None = None  # the first arrival, until visited
        self.pending_wakeup: float | None = None
        self.tick_count = 0
        # Where each tenant's batch records stood at the last autoscale
        # tick: (batches, requests). The p99 metric reads the batches
        # recorded since.
        self.tick_mark = [(0, 0)] * K

        # Busy-replica bookkeeping. The free-time lists are the ground
        # truth, but scanning them per step is O(replicas x steps); the
        # hot loop instead keeps (a) a min-heap of in-flight batch
        # finish times — so the next completion is O(1) to peek — and
        # (b) per group, a min-heap of the replicas in the active prefix
        # that can take work now: dispatch pops the lowest idle index,
        # and entries draining off the busy heap push theirs back.
        # Scaling events rebuild the idle heaps from the free times
        # (rare; ticks only). ``instants`` holds the other times the
        # loop must visit: policy wake-ups (group -1) and stall ends (the
        # stalled group and replica).
        self.busy_heap: list[tuple[float, int, int]] = []
        self.idle = [list(range(g.replicas)) for g in self.groups]
        self.instants: list[tuple[float, int, int]] = []

        self._device_specs: dict[str, object] = {}  # lazy, hop pricing only
        self._table: RequestTable | None = None  # after the run

        self.faults: FaultRuntime | None = None
        self.edges: list[tuple] = []
        self.edge_ptr = 0
        self.retry_heap: list[tuple] = []
        if (faults is not None or retry is not None
                or any(spec.degraded is not None for spec in self.tenants)):
            self._init_faults(faults or FaultPlan(), retry or RetryPolicy(),
                              order if index is None else np.asarray(index)[order])

    def _tenant_order(self) -> np.ndarray:
        """Stream positions grouped by tenant, arrival order within each.

        A stable argsort of the tenant codes; on codes narrowed to 8 or 16
        bits numpy radix-sorts, which gives the same order ~10x faster. It
        is sorted again after the run rather than kept through it: the
        loop's memory is a few columns per request.
        """
        K = len(self.tenants)
        return np.argsort(self.codes.astype(np.min_scalar_type(K - 1)),
                          kind="stable")

    def _init_faults(self, plan: FaultPlan, retry: RetryPolicy,
                     ids: np.ndarray) -> None:
        """Fault-run state: the edge timeline, per-replica fault state, and
        per-request retry bookkeeping (request ids feed the backoff jitter)."""
        self.faults = FaultRuntime(plan, retry, self.glabel,
                                   dict(zip(self.glabel, self.gdev)))
        for when, _seq, kind, label, arg in self.faults.happenings:
            g = self._gindex[label]
            if kind in ("throttle-on", "throttle-off"):
                self.edges.append((when, kind, g, 0, arg))
            else:
                # One edge per replica, in index order: a group behaves
                # like its expansion into slots.
                self.edges.extend((when, kind, g, r, arg)
                                  for r in range(self.groups[g].capacity))
        caps = [g.capacity for g in self.groups]
        self.rdown = [[False] * c for c in caps]
        self.ndown = [0] * len(caps)
        self.stalled = [[0.0] * c for c in caps]
        # (tenant, batch record) running on each replica.
        self.inflight: list[list[tuple[int, int] | None]] = [[None] * c
                                                             for c in caps]
        K = len(self.tenants)
        self.ids_t = [ids[self.bounds[t]:self.bounds[t + 1]] for t in range(K)]
        self.b_members: list[list[list[int] | None]] = [[] for _ in range(K)]
        self.b_degraded: list[list[bool]] = [[] for _ in range(K)]
        self.tries: list[dict[int, int]] = [{} for _ in range(K)]
        self.aborted_at: list[dict[int, float]] = [{} for _ in range(K)]
        self.shed_pos: list[list[int]] = [[] for _ in range(K)]
        self.modes = [spec.degraded for spec in self.tenants]
        self.degraded = [False] * K
        self.retry_seq = itertools.count()

    # -- time stepping -----------------------------------------------------------

    def _next_tick(self) -> float:
        if self.autoscale is None:
            return math.inf
        return (self.tick_count + 1) * self.autoscale.interval

    def _next_event(self) -> tuple[float, int]:
        """The next event: its time and kind, plain instants last on ties."""
        when, kind = self._next_tick(), _PLAIN
        if self.busy_heap and self.busy_heap[0][0] < when:
            when = self.busy_heap[0][0]
        if self.instants and self.instants[0][0] < when:
            when = self.instants[0][0]
        if self.next_arr < self.n and any(self.idle):
            # An arrival is a dispatch opportunity only while some replica
            # is idle; while all are busy the next event absorbs it (with
            # nothing idle, visiting it would offer nothing).
            arrival = float(self.arr_all[self.next_arr])
            if arrival < when:
                when = arrival
        if self.retry_heap and self.retry_heap[0][0] <= when:
            when, kind = self.retry_heap[0][0], _RETRY
        if self.edge_ptr < len(self.edges) and self.edges[self.edge_ptr][0] <= when:
            when, kind = self.edges[self.edge_ptr][0], _EDGE
        if self.first is not None and self.first <= when:
            when, kind = self.first, _FIRST
        return when, kind

    def _step(self, now: float) -> None:
        """Absorb everything due at ``now`` — completions, stall ends,
        arrivals, ticks — then shed and offer."""
        faulted = self.faults is not None
        heap = self.busy_heap
        while heap and heap[0][0] <= now:
            finish, g, ridx = heapq.heappop(heap)
            if faulted:
                if self._complete(finish, g, ridx):
                    self._release(g, ridx, now)
            elif ridx < self.act[g]:
                heapq.heappush(self.idle[g], ridx)
            # else: the replica drained outside the autoscaler-active
            # prefix; its free time stays on the list and is picked
            # back up by the rebuild if the group scales out again.
        instants = self.instants
        while instants and instants[0][0] <= now:
            _when, g, ridx = heapq.heappop(instants)
            if g >= 0:  # a stall ended
                self._release(g, ridx, now)
        if self.next_arr < self.n:
            old = self.next_arr
            new_total = int(self.arr_all.searchsorted(now, side="right"))
            if new_total > old:
                self.next_arr = new_total
                counts = np.bincount(self.codes[old:new_total],
                                     minlength=len(self.tenants))
                for t, c in enumerate(counts.tolist()):
                    self.tail[t] += c
                if faulted:
                    self.faults.queued += new_total - old
        if self.autoscale is not None:
            n_scaled = len(self.scaling)
            while self._next_tick() <= now:
                tick = self._next_tick()
                self.tick_count += 1
                self._tick(tick)
            if len(self.scaling) != n_scaled:
                # Active prefixes moved; rebuild the idle heaps from the
                # free times (w.r.t. *now* — everything due has already
                # drained off the busy heap). An ascending list is a heap.
                for g, free in enumerate(self.free):
                    self.idle[g] = [r for r in range(self.act[g])
                                    if free[r] <= now and self._up(g, r, now)]
        if self.pending_wakeup is not None and now >= self.pending_wakeup:
            self.pending_wakeup = None
        if faulted:
            # No request is ever silently lost: everything issued so far
            # is queued, on a replica, awaiting retry, completed or shed.
            self._shed_expired(now)
            self.faults.check_conservation(self.next_arr)
        self._offer(now)

    # -- autoscaling -------------------------------------------------------------

    def _window_p99(self) -> float:
        """p99 latency of the batches dispatched since the last tick."""
        window = []
        for t, arr in enumerate(self.arr_t):
            b0, r0 = self.tick_mark[t]
            b1, r1 = len(self.b_finish[t]), self.head[t]
            if b1 > b0 and self.faults is None:
                lat = np.repeat(self.b_finish[t][b0:b1], self.b_size[t][b0:b1])
                window.append(np.subtract(lat, arr[r0:r1], out=lat))
            elif b1 > b0:
                for k in range(b0, b1):
                    members = self.b_members[t][k]
                    if members is not None:
                        window.append(self.b_finish[t][k] - arr[members])
            self.tick_mark[t] = (b1, r1)
        if not window:
            return 0.0
        return float(np.percentile(np.concatenate(window), 99))

    def _tick(self, when: float) -> None:
        scale = self.autoscale
        queued = self.next_arr - self.dispatched
        if self.faults is not None:
            queued -= self.faults.shed
        if scale.metric == "queue":
            value = float(queued)
        else:
            value = self._window_p99()
        for g, group in enumerate(self.groups):
            if self.faults is not None and self.ndown[g]:
                continue
            if when - self.last_action[g] < scale.cooldown:
                continue
            act = self.act[g]
            max_r = min(scale.max_replicas or group.capacity, group.capacity)
            min_r = min(scale.min_replicas, max_r)
            if value > scale.threshold and act < max_r:
                after = min(act + scale.step, max_r)
                reason = f"{scale.metric}={value:g}>{scale.threshold:g}"
            elif queued == 0 and act > min_r:
                idle = sum(f <= when for f in self.free[g][:act])
                if idle / act < scale.idle_fraction:
                    continue
                after = max(act - scale.step, min_r)
                reason = f"idle {idle}/{act}"
            else:
                continue
            self.occ_int[g] += act * (when - self.occ_last[g])
            self.occ_last[g] = when
            self.act[g] = after
            self.peak[g] = max(self.peak[g], after)
            self.last_action[g] = when
            self.scaling.append(
                ScalingEvent(when, self.glabel[g], act, after, reason))

    # -- the offer loop ----------------------------------------------------------

    def _offer(self, now: float) -> None:
        """Offer queued work to idle groups until every policy holds.

        Tenants go in oldest-head-first order (stable on ties, i.e. spec
        order), groups in the router's order for that tenant; the first
        (tenant, group) pair whose policy dispatches restarts the scan.
        """
        K = len(self.tenants)
        head, tail, front, head_arr = self.head, self.tail, self.front, self.head_arr
        router = self.router
        degrade = self._update_degraded if self.faults is not None else None
        while True:
            idle = [label for label, free in zip(self.glabel, self.idle) if free]
            if not idle:
                return
            active = [t for t in range(K) if head[t] < tail[t] or front[t]]
            if not active:
                return
            if len(active) > 1:
                active.sort(key=head_arr.__getitem__)
            chosen_t = chosen = size = None
            for t in active:
                if degrade is not None:
                    degrade(t, now)
                qlen = tail[t] - head[t] + len(front[t])
                cost = self.tcost[t]
                # Ranking a single idle group is a no-op; skipping it also
                # keeps legacy callable cost models (defined only up to
                # their batch cap) away from the router's larger probes.
                ranked = idle if len(idle) == 1 else router.rank(idle, qlen, cost)
                oldest_wait = now - head_arr[t]
                for label in ranked:
                    size = self.policies[t].decide(now, qlen, oldest_wait,
                                                   label, cost)
                    if size is not None:
                        chosen_t, chosen = t, label
                        break
                if size is not None:
                    break
            if size is None:
                self._hold(now, active)
                return
            self._dispatch(chosen_t, self._gindex[chosen], size, now)

    def _set_head(self, t: int) -> None:
        """Cache the arrival of tenant ``t``'s queue head (or of its next
        arrival, when the queue is empty)."""
        front, arr, end = self.front[t], self.arr_t[t], self.head[t]
        self.head_arr[t] = (float(arr[front[0]]) if front
                            else float(arr[end]) if end < arr.size else math.inf)

    def _hold(self, now: float, active: list[int]) -> None:
        wakes = (self.policies[t].next_wakeup(now, self.head_arr[t])
                 for t in active)
        wake = min((w for w in wakes if w is not None and w > now), default=None)
        if wake is not None and (self.pending_wakeup is None
                                 or wake < self.pending_wakeup):
            self.pending_wakeup = wake
            heapq.heappush(self.instants, (wake, -1, 0))
        if (not self.instants and self.next_arr >= self.n
                and self.edge_ptr >= len(self.edges)
                and not self.busy_heap and not self.retry_heap):
            names = ",".join(self.policies[t].name for t in active)
            raise RuntimeError(f"policy {names!r} held with no pending events")

    def _dispatch(self, t: int, g: int, size: int, now: float) -> None:
        head = self.head[t]
        front = self.front[t]
        size = max(1, min(int(size), self.tail[t] - head + len(front)))
        label = self.glabel[g]
        duration = self.tcost[t].latency(label, size)
        if duration <= 0:
            raise ValueError("batch_time must return a positive duration")
        # The lowest idle index: the replica a scan of the active prefix
        # for the first free time <= now would pick.
        ridx = heapq.heappop(self.idle[g])
        free = self.free[g]
        idle_since = free[ridx]
        finish = now + duration
        busy = duration
        if self.hop_bytes > 0.0 and self.last_group[t] not in (None, g):
            device = self.gdev[g]
            spec = self._device_specs.get(device)
            if spec is None:
                from repro.hw.device import get_device

                spec = self._device_specs[device] = get_device(device)
            hop = h2d_time(self.hop_bytes * size, spec)
            finish += hop
            busy += hop
            self.hop_batches[g] += 1
            self.hop_time[g] += hop
        self.last_group[t] = g

        # Retried requests wait in the front deque, ahead of the fresh
        # slice (always empty without faults).
        retried = ([front.popleft() for _ in range(min(size, len(front)))]
                   if front else ())
        end = head + size - len(retried)
        self.head[t] = end
        arr = self.arr_t[t]  # _set_head, inlined on the per-batch path
        self.head_arr[t] = (float(arr[front[0]]) if front
                            else float(arr[end]) if end < arr.size else math.inf)
        self.b_finish[t].append(finish)
        self.b_size[t].append(size)
        self.b_now[t].append(now)
        self.b_idle[t].append(idle_since)
        self.b_group[t].append(g)
        self.b_replica[t].append(ridx)
        self.disp_sum[t] += now * size
        self.serv_sum += (finish - now) * size
        if self.faults is not None:
            self._note_dispatch(t, g, ridx, [*retried, *range(head, end)])
        free[ridx] = finish
        heapq.heappush(self.busy_heap, (finish, g, ridx))
        self.batches[g] += 1
        self.requests[g] += size
        self.busy[g] += busy
        self.dispatched += size
        if finish > self.makespan:
            self.makespan = finish
        self.router.note_dispatch(label)

    # -- faults ------------------------------------------------------------------

    def _up(self, g: int, ridx: int, now: float) -> bool:
        """Whether a replica is neither down nor stalled at ``now``."""
        return self.faults is None or (not self.rdown[g][ridx]
                                       and self.stalled[g][ridx] <= now)

    def _release(self, g: int, ridx: int, now: float) -> None:
        """Put a replica back on its group's idle heap if it can take work."""
        if (ridx < self.act[g] and self.free[g][ridx] <= now
                and self._up(g, ridx, now)):
            heapq.heappush(self.idle[g], ridx)

    def _unidle(self, g: int, ridx: int) -> None:
        if ridx in self.idle[g]:
            self.idle[g].remove(ridx)
            heapq.heapify(self.idle[g])

    def _note_dispatch(self, t: int, g: int, ridx: int, members: list[int]) -> None:
        rt = self.faults
        self.b_members[t].append(members)
        self.b_degraded[t].append(self.degraded[t])
        self.inflight[g][ridx] = (t, len(self.b_members[t]) - 1)
        rt.queued -= len(members)
        rt.on_device += len(members)
        if self.degraded[t]:
            name = self.tenants[t].name
            rt.degraded_requests[name] = (rt.degraded_requests.get(name, 0)
                                          + len(members))

    def _complete(self, finish: float, g: int, ridx: int) -> bool:
        """A completion entry drained; finish its batch unless it is stale
        (the batch was aborted, or a stall moved its finish)."""
        record = self.inflight[g][ridx]
        if record is None or self.free[g][ridx] != finish:
            return False
        self.inflight[g][ridx] = None
        t, k = record
        members = self.b_members[t][k]
        rt = self.faults
        rt.on_device -= len(members)
        rt.completed += len(members)
        aborted_at = self.aborted_at[t]
        if aborted_at:
            for pos in members:
                at = aborted_at.pop(pos, None)
                if at is not None:
                    rt.recovery_samples.append(finish - at)
        return True

    def _apply_edge(self, now: float) -> None:
        _when, kind, g, ridx, arg = self.edges[self.edge_ptr]
        self.edge_ptr += 1
        rt = self.faults
        label = self.glabel[g]
        if kind == "down":
            self.rdown[g][ridx] = True
            if not self.ndown[g]:
                rt.down_since[label] = now
            self.ndown[g] += 1
            if self.ndown[g] == self.groups[g].capacity:
                self.router.note_down(label)
            self._unidle(g, ridx)
            if self.inflight[g][ridx] is not None:
                self._abort(g, ridx, now)
        elif kind == "recover":
            if self.ndown[g] == self.groups[g].capacity:
                self.router.note_recover(label)
            self.ndown[g] -= 1
            self.rdown[g][ridx] = False
            if not self.ndown[g]:
                start = rt.down_since.pop(label, now)
                rt.down_windows.setdefault(label, []).append((start, now))
            if self.free[g][ridx] < now:
                self.free[g][ridx] = now
            self._release(g, ridx, now)
        elif kind == "throttle-on":
            active = rt.active_throttles.setdefault(label, [])
            active.append(arg)
            self.throttle[label] = float(np.prod(active))
        elif kind == "throttle-off":
            active = rt.active_throttles.get(label, [])
            if arg in active:
                active.remove(arg)
            if active:
                self.throttle[label] = float(np.prod(active))
            else:
                self.throttle.pop(label, None)
        elif not self.rdown[g][ridx]:  # a stall; a down replica cannot stall
            rt.stall_time[label] = rt.stall_time.get(label, 0.0) + arg
            record = self.inflight[g][ridx]
            if record is not None:
                t, k = record
                finish = self.b_finish[t][k] = self.b_finish[t][k] + arg
                self.free[g][ridx] = finish
                heapq.heappush(self.busy_heap, (finish, g, ridx))
                self.makespan = max(self.makespan, finish)
            else:
                self.stalled[g][ridx] = max(self.stalled[g][ridx], now + arg)
                self._unidle(g, ridx)
                heapq.heappush(self.instants, (now + arg, g, ridx))

    def _abort(self, g: int, ridx: int, now: float) -> None:
        """Abort the batch on a failing replica; retry or shed its requests."""
        t, k = self.inflight[g][ridx]
        self.inflight[g][ridx] = None
        members = self.b_members[t][k]
        self.b_members[t][k] = None
        size = len(members)
        self.free[g][ridx] = now
        self.busy[g] -= self.b_finish[t][k] - now  # only the executed part counts
        self.batches[g] -= 1
        self.requests[g] -= size
        self.dispatched -= size
        rt = self.faults
        label = self.glabel[g]
        rt.aborted_batches[label] = rt.aborted_batches.get(label, 0) + 1
        rt.aborted_requests[label] = rt.aborted_requests.get(label, 0) + size
        rt.on_device -= size
        retry = rt.retry
        arr, tries = self.arr_t[t], self.tries[t]
        for pos in members:
            attempt = tries[pos] = tries.get(pos, 0) + 1
            if attempt > retry.max_retries or (
                    retry.deadline is not None
                    and now - arr[pos] >= retry.deadline):
                self._shed(t, pos)
            else:
                rt.retries += 1
                self.aborted_at[t][pos] = now
                backoff = retry.backoff(int(self.ids_t[t][pos]), attempt)
                heapq.heappush(self.retry_heap, (now + backoff,
                                                 next(self.retry_seq), t, pos))
                rt.awaiting_retry += 1

    def _shed(self, t: int, pos: int) -> None:
        rt = self.faults
        name = self.tenants[t].name
        rt.shed += 1
        rt.tenant_shed[name] = rt.tenant_shed.get(name, 0) + 1
        self.aborted_at[t].pop(pos, None)
        self.shed_pos[t].append(pos)

    def _requeue(self, now: float) -> None:
        """A backoff expired: put the request back in arrival order (or shed
        it past its deadline). Among equal arrivals it goes ahead of the
        queue's head, or behind everything already queued."""
        _when, _seq, t, pos = heapq.heappop(self.retry_heap)
        rt = self.faults
        rt.awaiting_retry -= 1
        arr = self.arr_t[t]
        arrival = float(arr[pos])
        deadline = rt.retry.deadline
        if deadline is not None and now - arrival >= deadline:
            self._shed(t, pos)
            return
        front, head, tail = self.front[t], self.head[t], self.tail[t]
        if not (front or head < tail) or arrival <= self.head_arr[t]:
            front.appendleft(pos)
        elif head < tail and arr[head] <= arrival:
            # It belongs among the fresh requests: the ones that arrived
            # no later move into the front deque ahead of it.
            split = head + int(np.searchsorted(arr[head:tail], arrival,
                                               side="right"))
            front.extend(range(head, split))
            front.append(pos)
            self.head[t] = split
        else:
            front.insert(bisect.bisect_right(front, arrival,
                                             key=lambda p: arr[p]), pos)
        self._set_head(t)
        rt.queued += 1

    def _shed_expired(self, now: float) -> None:
        """Shed queue heads whose deadline expired (queues are arrival-sorted)."""
        deadline = self.faults.retry.deadline
        if deadline is None:
            return
        for t, front in enumerate(self.front):
            while ((front or self.head[t] < self.tail[t])
                   and now - self.head_arr[t] >= deadline):
                if front:
                    pos = front.popleft()
                else:
                    pos = self.head[t]
                    self.head[t] += 1
                self.faults.queued -= 1
                self._shed(t, pos)
                self._set_head(t)

    def _update_degraded(self, t: int, now: float) -> None:
        """Enter/exit degraded mode on queue-pressure hysteresis."""
        mode = self.modes[t]
        if mode is None:
            return
        rt = self.faults
        name = self.tenants[t].name
        oldest_wait = now - self.head_arr[t]
        if not self.degraded[t] and oldest_wait >= mode.enter_wait:
            self.degraded[t] = True
            self.tcost[t].extra = mode.latency_factor
            rt.degraded_since[name] = now
            rt.degraded_activations[name] = (
                rt.degraded_activations.get(name, 0) + 1)
        elif self.degraded[t] and oldest_wait <= mode.exit_wait:
            self.degraded[t] = False
            self.tcost[t].extra = 1.0
            start = rt.degraded_since.pop(name, now)
            rt.degraded_time[name] = rt.degraded_time.get(name, 0.0) + (now - start)

    # -- run ---------------------------------------------------------------------

    def run(self) -> float:
        if self.n == 0:
            self._fill_requests()
            return 0.0
        self.first = float(self.arr_all[0])
        rt = self.faults
        # Without faults dispatch finalizes timing; with them a batch can
        # still abort, so only completion or shedding retires a request.
        while (self.dispatched if rt is None else rt.completed + rt.shed) < self.n:
            now, kind = self._next_event()
            if now == math.inf:
                raise RuntimeError(
                    "fleet event loop stalled with requests pending")
            if kind == _FIRST:
                self.first = None
            elif kind == _EDGE:
                self._apply_edge(now)
            elif kind == _RETRY:
                self._requeue(now)
            self._step(now)
        for g in range(len(self.groups)):
            self.occ_int[g] += self.act[g] * (self.makespan - self.occ_last[g])
            self.occ_last[g] = self.makespan
        self._fill_requests()
        return self.makespan

    # -- per-request results -------------------------------------------------------

    def _fill_requests(self) -> None:
        """Per-request timing from the batch records, one pass per tenant.

        Latency is ``finish - arrival``; the queue wait sums as dispatch
        instants minus arrivals; and the formation wait is
        ``max(0, now - max(arrival, idle_since))``, which — queued
        requests arrived at or before ``now``, the replica freed at or
        before it — is a min of two non-negative terms. Only the
        latencies of completed requests are kept per request; the waits
        only ever surface as means. Without faults the records tile each
        tenant's queue, and at most two tenant-sized temporaries are
        alive at once. With faults the sums and latencies are read off
        the request table, tenant by tenant.
        """
        if self.faults is not None:
            table = self.request_table()
            order = self.done_order
            arr, disp = table.arrival[order], table.dispatch[order]
            fin, form = table.finish[order], table.formation[order]
            lat, serv = fin - arr, fin - disp
            self.form_sum = self.serv_sum = 0.0
            end = 0
            for t, shed in enumerate(self.shed_pos):
                start, end = end, end + self.arr_t[t].size - len(shed)
                self.arr_sum[t] = float(arr[start:end].sum())
                self.disp_sum[t] = float(disp[start:end].sum())
                self.form_sum += float(form[start:end].sum())
                self.serv_sum += float(serv[start:end].sum())
                self.lat_t.append(lat[start:end])
            return
        for t, arr in enumerate(self.arr_t):
            sizes = np.array(self.b_size[t], dtype=np.intp)
            self.arr_sum[t] = float(arr.sum())
            now = np.array(self.b_now[t])
            wait = np.repeat(now, sizes)
            np.subtract(wait, arr, out=wait)
            idle = np.repeat(now - np.array(self.b_idle[t]), sizes)
            self.form_sum += float(np.minimum(wait, idle, out=wait).sum())
            del wait, idle  # the latencies below can reuse their memory
            lat = np.repeat(np.array(self.b_finish[t]), sizes)
            self.lat_t.append(np.subtract(lat, arr, out=lat))

    def request_table(self) -> RequestTable:
        """Every request's outcome in stream order, built once per run.

        All tenants' batch records are concatenated once, tenant by
        tenant, and each column is one ``np.repeat`` of a record field
        over the batch sizes, scattered to stream positions through the
        stable tenant order. Without faults the records tile the
        tenant-grouped stream in order; with faults only the batches that
        completed count, each landing on its members, and a shed request
        keeps NaN times, slot and replica -1, batch size 0 and formation 0.
        """
        if self._table is not None:
            return self._table
        n, order, bounds = self.n, self._tenant_order(), self.bounds
        chain = itertools.chain.from_iterable
        n_batches = [len(sizes) for sizes in self.b_size]
        count = sum(n_batches)

        def record(lists, dtype):
            return np.fromiter(chain(lists), dtype=dtype, count=count)

        sizes = record(self.b_size, np.intp)
        now, finish = record(self.b_now, np.float64), record(self.b_finish, np.float64)
        idle, group = record(self.b_idle, np.float64), record(self.b_group, np.intp)
        replica = record(self.b_replica, np.intp)
        retries = np.zeros(n, dtype=np.intp)
        shed = np.zeros(n, dtype=bool)
        if self.faults is None:
            dest, degraded = order, np.zeros(count, dtype=bool)
        else:
            live = np.fromiter((m is not None for m in chain(self.b_members)),
                               dtype=bool, count=count)
            sizes, now, finish = sizes[live], now[live], finish[live]
            idle, group, replica = idle[live], group[live], replica[live]
            degraded = record(self.b_degraded, bool)[live]
            # Members are positions in their tenant's queue; the tenant's
            # bound turns them into tenant-grouped positions.
            first = np.repeat(bounds[:-1], n_batches)[live]
            pos = np.fromiter(chain(m for m in chain(self.b_members)
                                    if m is not None),
                              dtype=np.intp, count=int(sizes.sum()))
            dest = order[pos + np.repeat(first, sizes)]
            for t, tries in enumerate(self.tries):
                ids = order[bounds[t]:bounds[t + 1]]
                retries[ids[list(tries)]] = list(tries.values())
                shed[ids[self.shed_pos[t]]] = True

        def spread(values, blank, dtype=np.float64):
            column = np.full(n, blank, dtype=dtype)
            column[dest] = values
            return column

        dispatch = np.repeat(now, sizes)
        formation = np.minimum(dispatch - self.arr_all[dest],
                               dispatch - np.repeat(idle, sizes))
        self.done_order = order if self.faults is None else order[~shed[order]]
        self._table = RequestTable(
            index=(np.arange(n, dtype=np.int64) if self.index is None
                   else np.asarray(self.index, dtype=np.int64)),
            arrival=self.arr_all,
            tenant=self.codes,
            tenants=tuple(spec.name for spec in self.tenants),
            dispatch=spread(dispatch, np.nan),
            finish=spread(np.repeat(finish, sizes), np.nan),
            slot=spread(np.repeat(group, sizes), -1, np.intp),
            slots=tuple(self.glabel),
            replica=spread(np.repeat(replica, sizes), -1, np.intp),
            batch_size=spread(np.repeat(sizes, sizes), 0, np.intp),
            formation=spread(formation, 0.0),
            retries=retries,
            shed=shed,
            degraded=spread(np.repeat(degraded, sizes), False, bool),
        )
        return self._table

    def batch_histograms(self) -> list[dict[int, int]]:
        """Per group, completed batches by size (sorted by size)."""
        histograms: list[dict[int, int]] = [{} for _ in self.groups]
        for t, sizes in enumerate(self.b_size):
            members = self.b_members[t] if self.faults is not None else None
            for k, (g, size) in enumerate(zip(self.b_group[t], sizes)):
                if members is None or members[k] is not None:
                    histograms[g][size] = histograms[g].get(size, 0) + 1
        return [dict(sorted(h.items())) for h in histograms]

    def fault_stats(self) -> FaultStats | None:
        """What the fault plan, retry policy and degraded modes did, or
        ``None`` for a run without any of them."""
        if self.faults is None:
            return None
        histogram: dict[int, int] = {}
        degraded: dict[str, np.ndarray] = {}
        # Degraded flags of the completed requests, aligned with lat_t.
        flags = self.request_table().degraded[self.done_order]
        end = 0
        for t, spec in enumerate(self.tenants):
            for tries in self.tries[t].values():
                histogram[tries] = histogram.get(tries, 0) + 1
            start, end = end, end + self.lat_t[t].size
            if any(self.b_degraded[t]):
                degraded[spec.name] = self.lat_t[t][flags[start:end]]
        return self.faults.build_stats(
            self.makespan, self.n,
            {spec.name: (spec.degraded, spec.slo) for spec in self.tenants},
            dict(sorted(histogram.items())), degraded)


# ---------------------------------------------------------------------------
# The report and the entry point
# ---------------------------------------------------------------------------


def _group_stats(engine: _FleetEngine) -> dict[str, GroupStats]:
    makespan = engine.makespan
    histograms = engine.batch_histograms()
    out: dict[str, GroupStats] = {}
    for g, group in enumerate(engine.groups):
        mean_rep = (engine.occ_int[g] / makespan if makespan > 0
                    else float(group.replicas))
        denom = mean_rep * makespan
        out[group.device] = GroupStats(
            group=group.device,
            device=engine.gdev[g],
            replicas=engine.act[g],
            peak_replicas=engine.peak[g],
            mean_replicas=mean_rep,
            batches=engine.batches[g],
            requests=engine.requests[g],
            busy_time=engine.busy[g],
            utilization=engine.busy[g] / denom if denom > 0 else 0.0,
            mean_batch=(engine.requests[g] / engine.batches[g]
                        if engine.batches[g] else 0.0),
            batch_histogram=histograms[g],
            hop_batches=engine.hop_batches[g],
            hop_time=engine.hop_time[g],
        )
    return out


# np.percentile's q / 100 for the p50, p95 and p99 every report carries.
_QUANTILES = np.true_divide([50, 95, 99], 100)


def _percentiles(segments: Sequence[np.ndarray]) -> list[list[float]]:
    """``np.percentile(segment, [50, 95, 99])`` of every non-empty,
    NaN-free segment, bit for bit, in one pass over all of them.

    Each segment is sorted: a sorted array holds every order statistic
    where ``np.percentile``'s partition puts it. Then numpy's linear
    method runs on all segments at once, the same element-wise
    operations on the same operands: virtual index ``(n - 1) * q``,
    neighbours at ``floor`` and ``floor + 1`` (both at ``n - 1`` once the
    index reaches it, where numpy takes the weight against index -1),
    and ``a + (b - a) * g``, or ``b - (b - a) * (1 - g)`` where
    ``g >= 0.5``.
    """
    if not segments:
        return []
    sizes = np.array([s.size for s in segments], dtype=np.intp)
    values = np.concatenate([np.sort(s) for s in segments])
    last = (sizes - 1)[:, None]
    virtual = last * _QUANTILES
    prev = np.floor(virtual)
    above = virtual >= last
    prev[above] = -1
    gamma = virtual - prev
    lo = np.where(above, last, prev.astype(np.intp))
    lo += (np.cumsum(sizes) - sizes)[:, None]
    a, b = values[lo], values[np.where(above, lo, lo + 1)]
    diff = b - a
    out = a + diff * gamma
    upper = gamma >= 0.5
    out[upper] = (b - diff * (1 - gamma))[upper]
    return out.tolist()


def _tenant_stats(engine: _FleetEngine) -> dict[str, TenantStats]:
    """Per-tenant latency / SLO stats from each tenant's completed
    requests' latencies (arrival order) and wait sums; every tenant's
    percentiles come from one :func:`_percentiles` pass. Attainment
    divides by the requests the tenant was issued, sheds included."""
    makespan = engine.makespan
    out: dict[str, TenantStats] = {}
    percentiles = iter(_percentiles([lat for lat in engine.lat_t if lat.size]))
    for t, (spec, lat) in enumerate(zip(engine.tenants, engine.lat_t)):
        n = int(lat.size)
        if n:
            p50, p95, p99 = next(percentiles)
            mean_lat = float(lat.mean())
            queue = (engine.disp_sum[t] - engine.arr_sum[t]) / n
        else:
            p50 = p95 = p99 = mean_lat = queue = 0.0
        attainment = None
        if spec.slo is not None:
            issued = engine.arr_t[t].size
            attainment = (int(np.count_nonzero(lat <= spec.slo)) / issued
                          if issued else 1.0)
        out[spec.name] = TenantStats(
            tenant=spec.name,
            n_requests=n,
            slo=spec.slo,
            throughput=n / makespan if makespan > 0 else 0.0,
            mean_latency=mean_lat,
            p50_latency=float(p50),
            p95_latency=float(p95),
            p99_latency=float(p99),
            mean_queue_time=queue,
            slo_attainment=attainment,
        )
    return out


def _report(engine: _FleetEngine, router: Router,
            arrival_rate: float | None) -> ServingReport:
    """The report of a finished engine run, for every entry point: every
    statistic comes off the engine's per-tenant latency buffers, wait
    sums and per-group counters; the per-request columns wait for the
    first read of ``report.table``."""
    makespan = engine.makespan
    latencies = np.concatenate(engine.lat_t)
    done = latencies.size
    if done:
        p50, p95, p99 = np.percentile(latencies, [50, 95, 99])
        mean_latency = float(latencies.mean())
        mean_queue = (sum(engine.disp_sum) - sum(engine.arr_sum)) / done
        mean_formation = engine.form_sum / done
        mean_service = engine.serv_sum / done
    else:
        p50 = p95 = p99 = 0.0
        mean_latency = mean_queue = mean_formation = mean_service = 0.0
    return ServingReport(
        policy=f"mixed({len(engine.tenants)} tenants)",
        router=router.name,
        n_requests=engine.n,
        arrival_rate=arrival_rate,
        makespan=makespan,
        throughput=done / makespan if makespan > 0 else 0.0,
        mean_latency=mean_latency,
        p50_latency=float(p50),
        p95_latency=float(p95),
        p99_latency=float(p99),
        mean_queue_time=mean_queue,
        mean_formation_wait=mean_formation,
        mean_service_time=mean_service,
        group_stats=_group_stats(engine),
        request_table=engine.request_table,
        tenant_stats=_tenant_stats(engine),
        scaling_events=tuple(engine.scaling),
        latencies=latencies,
        fault_stats=engine.fault_stats(),
    )


def simulate_fleet(
    tenants: Sequence[TenantSpec],
    groups: Sequence[DeviceGroup] | str,
    n_requests: int = 10_000,
    arrival_rate: float | None = None,
    scenario: str = "uniform",
    columns=None,
    router: Router | None = None,
    autoscale: AutoscalePolicy | None = None,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
    hop_bytes: float = 0.0,
    seed: int = 0,
    lint: bool = True,
) -> ServingReport:
    """Serve a tenant mix on a fleet of homogeneous device groups.

    Parameters mirror :func:`~repro.serving.simulator.simulate_mixed`
    where they overlap (``router`` ranks idle groups, default
    earliest-finish; ``faults`` and ``retry`` work as there, with the
    plan naming groups); the differences:

    ``groups``
        Device groups (or a ``"dev:replicas[:pool],..."`` spec string).
        Group device names must be unique — a group *is* the unit of
        routing, scaling and fault targeting.
    ``columns``
        A prebuilt :class:`~repro.serving.request.RequestColumns`
        stream to serve instead of generating one from ``scenario``;
        its tenant axis must match ``tenants`` exactly.
    ``autoscale``
        Reactive :class:`AutoscalePolicy`; ``None`` keeps every group at
        its initial replica count.
    ``hop_bytes``
        Per-request payload priced through
        :func:`repro.hw.transfer.h2d_time` whenever a tenant's batch
        lands on a different group than its previous one.

    With ``autoscale=None`` and ``hop_bytes=0`` the result equals
    :func:`~repro.serving.simulator.simulate_mixed` on the groups'
    expansion into slots (for groups of at most ten replicas, whose slot
    labels sort in replica order) to float round-off, with or without a
    plan of down/recover and stall events; tier-1 differential tests pin
    this.
    """
    if not tenants:
        raise ValueError("need at least one tenant")
    names = [spec.name for spec in tenants]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate tenant names: {names}")
    if isinstance(groups, str):
        groups = parse_groups(groups)
    groups = tuple(groups)
    if not groups:
        raise ValueError("need at least one device group")
    devices = [g.device for g in groups]
    if len(set(devices)) != len(devices):
        raise FleetConfigError(f"duplicate group devices: {devices}")
    if not is_finite_number(hop_bytes) or hop_bytes < 0:
        raise ValueError(
            f"hop_bytes must be non-negative and finite, got {hop_bytes!r}")
    router = router or EarliestFinishRouter()

    if lint:
        from repro.lint import check, lint_fleet, lint_tenants

        pre = lint_tenants(tenants, source="simulate_fleet")
        pre.extend(lint_fleet(groups, autoscale=autoscale, faults=faults,
                              source="simulate_fleet"))
        check(pre, what="fleet configuration")

    if columns is None:
        from repro.serving.scenarios import scenario_columns

        columns = scenario_columns(scenario, tenants, n_requests=n_requests,
                                   arrival_rate=arrival_rate, seed=seed)
    else:
        if tuple(columns.tenants) != tuple(names):
            raise ValueError(
                f"columns tagged for tenants {list(columns.tenants)}, "
                f"simulating {names}")
        arr = check_arrivals(columns.arrivals)
        if np.any(np.diff(arr) < 0):
            raise ValueError(
                "request columns must be sorted by arrival time; "
                "see sort_request_columns")

    engine = _FleetEngine(tenants, groups, columns, autoscale, faults,
                          hop_bytes, router, retry)
    engine.run()
    return _report(engine, router, arrival_rate)
