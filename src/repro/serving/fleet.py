"""Fleet-scale serving simulator: device groups, epoch event loop, autoscaling.

The classic simulator (:mod:`repro.serving.simulator`) pops one Python
object per dispatch opportunity off a heap and ranks slots one by one —
exact, but ~190k-290k simulated req/s on a handful of devices (2-vCPU
Xeon VM). A production fleet is a different shape: *hundreds*
of replicas behind a global router, almost all of them interchangeable.
This module exploits that structure. Devices are grouped into
homogeneous :class:`DeviceGroup`\\ s (``DeviceGroup("2080ti", 64)``),
and the event loop processes *epochs* of events per group:

* arrivals come in as columnar arrays straight from
  :func:`repro.serving.scenarios.scenario_columns` and are absorbed in
  bulk with ``searchsorted`` — under saturation, one epoch swallows
  thousands of arrivals without visiting them individually;
* each group keeps its replica free times in a list plus a min-heap of
  its idle replicas, so replica selection pops the lowest idle index
  and completions drain off one fleet-wide heap. Per-batch work runs on
  Python scalars: on the 1-64 element arrays a batch touches, numpy's
  call overhead costs more than the arithmetic;
* per-request timing (latencies, queue and formation waits) is filled
  after the loop, one vectorized pass per tenant over its batch records;
* batch latencies reuse the cost models' memoized anchor curves
  (:class:`~repro.serving.costmodel.ProfiledCostModel`) as a dense
  precomputed interpolation table per (tenant, device), shared by
  content across runs, so the hot loop never re-enters the interpolator.

Routing happens per *group*, not per slot: every replica of a group
shares one latency curve, so ranking 64 identical slots is 63 wasted
cost-model calls. On top of the core loop:

* **cross-group hop costs** — when the router moves a tenant's traffic
  to a different group than its previous batch, the batch pays a
  host-to-device transfer (:func:`repro.hw.transfer.h2d_time`) of
  ``hop_bytes`` per request on the destination device;
* **reactive autoscaling** — an :class:`AutoscalePolicy` evaluated on a
  fixed interval scales groups out on queue depth (or windowed p99) and
  back in on idleness, with cooldowns and per-group min/max replicas;
  every action lands in the report as a :class:`ScalingEvent`.

The classic loop stays as the *reference implementation*: with
autoscaling off, no faults and no hop costs, :func:`simulate_fleet`
visits a subset of the classic loop's event times but makes the
identical dispatch decisions at the identical instants, so completions,
latency percentiles and per-tenant SLO attainment agree to float
round-off — a tier-1-enforced differential invariant.

Fault plans compose at group granularity: ``DeviceDown``/``Recover``
takes a whole group out of routing (in-flight batches *drain* — their
timing was finalized at dispatch — rather than aborting as the classic
fault runtime does), and ``ThermalThrottle`` scales a group's latency
curves for its window. Slot-level ``TransientStall`` events have no
group-level meaning and are rejected.
"""

from __future__ import annotations

import functools
import heapq
import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.hw.transfer import h2d_time
from repro.serving.faults import FaultPlan
from repro.serving.request import is_finite_number
from repro.serving.simulator import TenantSpec, TenantStats

__all__ = [
    "AutoscalePolicy",
    "DeviceGroup",
    "FleetConfig",
    "FleetConfigError",
    "FleetReport",
    "GroupStats",
    "ScalingEvent",
    "parse_autoscale",
    "parse_groups",
    "simulate_fleet",
]


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
      batch (timing is finalized at dispatch, nothing is ever aborted).
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
    """Per-group accounting of one fleet simulation."""

    group: str  # device model name
    replicas: int  # active replicas at the end of the run
    peak_replicas: int
    mean_replicas: float  # time-weighted mean active replicas (occupancy)
    batches: int
    requests: int
    busy_time: float
    utilization: float  # busy time / (mean_replicas * makespan)
    mean_batch: float
    hop_batches: int  # batches that paid a cross-group transfer
    hop_time: float  # total transfer seconds added to those batches


@dataclass(frozen=True)
class FleetReport:
    """Everything one fleet simulation produced."""

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
    tenant_stats: dict[str, TenantStats]
    scaling_events: tuple[ScalingEvent, ...] = ()
    latencies: np.ndarray = field(default_factory=lambda: np.empty(0),
                                  repr=False)

    def slo_attainment(self, slo: float) -> float:
        """Fraction of requests whose end-to-end latency met ``slo``."""
        if not self.latencies.size:
            return 1.0
        return float((self.latencies <= slo).mean())

    @property
    def completed(self) -> int:
        """Dispatch finalizes timing and the fleet never sheds: all of them."""
        return self.n_requests


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
    autoscaler's provisioned ceiling).
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
# Dense latency tables
# ---------------------------------------------------------------------------

# A dense table never needs to stretch past the policies' decision range;
# anything larger falls back to the exact per-query path.
_MAX_TABLE = 4096


def _dense_curve(cost, device: str, max_k: int) -> tuple[float, ...] | None:
    """Precompute ``latency(device, k)`` for ``k = 1..max_k``, or ``None``.

    Only cost models exposing their anchor representation
    (``_anchor_arr`` + ``_anchor_curve``, i.e. the profiled/trace
    models) are vectorized; everything else (e.g. test callables) goes
    through the exact per-query fallback. Tables are shared by content,
    so a fresh cost model over an already-seen curve builds nothing.
    """
    anchors = getattr(cost, "_anchor_arr", None)
    curve_fn = getattr(cost, "_anchor_curve", None)
    if anchors is None or curve_fn is None:
        return None
    return _dense_table(anchors.tobytes(), curve_fn(device).tobytes(), max_k)


@functools.lru_cache(maxsize=256)
def _dense_table(anchor_bytes: bytes, time_bytes: bytes,
                 max_k: int) -> tuple[float, ...]:
    """The dense table of one float64 anchor curve, as Python floats.

    The vectorized interpolation reproduces
    :func:`repro.serving.costmodel._interp_affine` operation-for-operation,
    so table lookups are bit-identical to the scalar path the classic
    simulator takes. The result is a tuple because every caller with the
    same curve shares it.
    """
    anchors = np.frombuffer(anchor_bytes, dtype=np.float64)
    times = np.frombuffer(time_bytes, dtype=np.float64)
    ks = np.arange(1, max_k + 1, dtype=np.float64)
    out = np.interp(ks, anchors, times)
    if anchors.size > 1:
        hi = ks > anchors[-1]
        if hi.any():
            slope = (times[-1] - times[-2]) / (anchors[-1] - anchors[-2])
            out[hi] = times[-1] + slope * (ks[hi] - anchors[-1])
        lo = ks < anchors[0]
        if lo.any():
            slope = (times[1] - times[0]) / (anchors[1] - anchors[0])
            out[lo] = np.maximum(times[0] - slope * (anchors[0] - ks[lo]),
                                 times[0] * ks[lo] / anchors[0])
    return tuple(out.tolist())


class _GroupCost:
    """Per-tenant cost adapter the policies and the group router see.

    Groups are addressed by device model name, so ``device_name`` is the
    identity and ``underlying`` exposes the tenant's cost model — the
    same contract the classic loop's ``_SlotCost`` provides, which keeps
    :class:`~repro.serving.policies.AdaptiveSLOPolicy`'s drain memo
    shared (and valid) across both simulators.

    ``throttle`` is the live group → factor dict the fault edges mutate.
    """

    __slots__ = ("underlying", "_max_k", "_tables", "_memo", "_throttle")

    def __init__(self, cost, throttle: dict[str, float], max_k: int):
        self.underlying = cost
        self._max_k = min(int(max_k), _MAX_TABLE)
        # device -> dense table; () when the cost model has none.
        self._tables: dict[str, tuple[float, ...]] = {}
        self._memo: dict[tuple[str, int], float] = {}
        self._throttle = throttle

    def latency(self, device: str, batch_size: int) -> float:
        table = self._tables.get(device)
        if table is None:
            table = self._tables[device] = _dense_curve(
                self.underlying, device, self._max_k) or ()
        if 1 <= batch_size <= len(table):
            base = table[batch_size - 1]
        else:
            key = (device, batch_size)
            base = self._memo.get(key)
            if base is None:
                base = self._memo[key] = float(
                    self.underlying.latency(device, batch_size))
        if self._throttle:
            factor = self._throttle.get(device)
            if factor is not None:
                base *= factor
        return base

    def device_name(self, device: str) -> str:
        return device


def _policy_max_batch(policy, probe_cap: int) -> int:
    """Largest batch size a policy's decisions can ever price."""
    return max(int(probe_cap),
               int(getattr(policy, "max_batch", 0) or 0),
               int(getattr(policy, "batch_size", 0) or 0),
               1)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class _FleetEngine:
    """Epoch event loop over device groups.

    One *epoch* = advance the clock to the next relevant instant, absorb
    everything due (fault edges, arrivals in bulk, autoscale ticks),
    then offer queued work to idle groups until every policy holds.

    Per-batch work runs on Python scalars, lists and heaps: the batches
    are few (thousands per 10k requests) and numpy's call overhead on
    1-64 element arrays costs more than their arithmetic. Each batch
    appends one record to its tenant's lists; the per-request columns
    (latencies, arrival and formation-wait sums) are filled from those
    records in one vectorized pass per tenant after the loop. No
    per-request Python objects exist anywhere.
    """

    def __init__(self, tenants: Sequence[TenantSpec],
                 groups: Sequence[DeviceGroup], columns,
                 autoscale: AutoscalePolicy | None,
                 faults: FaultPlan | None,
                 hop_bytes: float, probe_cap: int):
        self.tenants = list(tenants)
        self.groups = list(groups)
        self.autoscale = autoscale
        self.hop_bytes = float(hop_bytes)
        self.probe_cap = int(probe_cap)

        n = len(columns)
        self.n = n
        self.arr_all = columns.arrivals
        self.codes = columns.codes

        # Per-tenant views of the stream. A single stable argsort groups
        # the request indices by tenant while preserving arrival order
        # within each tenant; on codes narrowed to 8 or 16 bits numpy
        # radix-sorts, which gives the same order ~10x faster. A batch is
        # always the next slice of one tenant's queue, so a tenant's
        # batch records (finish, size, dispatch instant, replica idle
        # time) are enough to rebuild every request's timing after the
        # loop; see _fill_requests.
        K = len(self.tenants)
        order = np.argsort(self.codes.astype(np.min_scalar_type(K - 1)),
                           kind="stable")
        bounds = np.zeros(K + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.codes, minlength=K), out=bounds[1:])
        self.arr_t = [self.arr_all[order[bounds[t]:bounds[t + 1]]]
                      for t in range(K)]
        self.lat_t: list[np.ndarray] = []  # filled by _fill_requests
        self.arr_sum = [0.0] * K   # sum of dispatched requests' arrivals
        self.disp_sum = [0.0] * K  # sum of dispatch instants (x batch size)
        self.form_sum = 0.0        # global formation-wait sum
        self.serv_sum = 0.0        # global service-time sum
        self.head = [0] * K
        self.tail = [0] * K
        # Arrival of each tenant's queue head, as a Python float.
        self.head_arr = [float(a[0]) if a.size else math.inf
                         for a in self.arr_t]
        self.last_group: list[int | None] = [None] * K
        self.b_finish: list[list[float]] = [[] for _ in range(K)]
        self.b_size: list[list[int]] = [[] for _ in range(K)]
        self.b_now: list[list[float]] = [[] for _ in range(K)]
        self.b_idle: list[list[float]] = [[] for _ in range(K)]

        self.throttle: dict[str, float] = {}
        self.policies = [spec.policy for spec in self.tenants]
        self.tcost = [
            _GroupCost(spec.cost, self.throttle,
                       _policy_max_batch(spec.policy, probe_cap))
            for spec in self.tenants
        ]

        # Per-group replica state: free times over the full provisioned
        # pool; ``act`` bounds the autoscaler-active prefix.
        G = len(self.groups)
        self.gdev = [g.device for g in self.groups]
        self.free = [[0.0] * g.capacity for g in self.groups]
        self.act = [g.replicas for g in self.groups]
        self.down = [False] * G
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

        self.edges: list[tuple] = []
        if faults is not None and not faults.empty:
            resolved = faults.resolve(self.gdev, {d: d for d in self.gdev})
            for when, _seq, kind, grp, arg in resolved:
                if kind == "stall":
                    raise FleetConfigError(
                        f"fault plan stalls {grp!r}: transient stalls are "
                        "slot-level events with no group meaning; use the "
                        "classic simulator for stall studies")
                self.edges.append((when, kind, grp, arg))
        self.edge_ptr = 0

        self.completed = 0
        self.makespan = 0.0
        self.next_arr = 0
        self.pending_wakeup: float | None = None
        self.tick_count = 0
        # Where each tenant's batch records stood at the last autoscale
        # tick: (batches, requests). The p99 metric reads the batches
        # recorded since.
        self.tick_mark = [(0, 0)] * K

        # Busy-replica bookkeeping. The free-time lists are the ground
        # truth, but scanning them per epoch is O(replicas x epochs); the
        # hot loop instead keeps (a) a min-heap of in-flight batch
        # finish times — so the next completion is O(1) to peek — and
        # (b) per group, a min-heap of the idle replica indices in the
        # active prefix: dispatch pops the lowest idle index, and
        # entries draining off the busy heap push theirs back. Scaling
        # events rebuild the idle heaps from the free times (rare;
        # ticks only).
        self.busy_heap: list[tuple[float, int, int]] = []
        self.idle = [list(range(g.replicas)) for g in self.groups]

        self._gindex = {d: i for i, d in enumerate(self.gdev)}
        self._device_specs: dict[str, object] = {}  # lazy, hop pricing only

    # -- time stepping -----------------------------------------------------------

    def _next_tick(self) -> float:
        if self.autoscale is None:
            return math.inf
        return (self.tick_count + 1) * self.autoscale.interval

    def _next_time(self, now: float) -> float:
        """Earliest instant after ``now`` at which anything can change."""
        candidates = []
        if self.pending_wakeup is not None:
            candidates.append(self.pending_wakeup)
        if self.edge_ptr < len(self.edges):
            candidates.append(self.edges[self.edge_ptr][0])
        tick = self._next_tick()
        if tick < math.inf:
            candidates.append(tick)
        if self.busy_heap:
            # Entries at or before ``now`` were drained in _advance, so
            # the heap top is the next batch completion across the fleet.
            candidates.append(self.busy_heap[0][0])
        if self.next_arr < self.n:
            for idle, down in zip(self.idle, self.down):
                if idle and not down:
                    # Some active replica is idle right now; between here
                    # and the next free event nothing busies it, so the
                    # next arrival is a dispatch opportunity worth
                    # visiting.
                    candidates.append(float(self.arr_all[self.next_arr]))
                    break
        nxt = min((c for c in candidates if c > now), default=math.inf)
        return nxt

    def _advance(self, now: float) -> None:
        """Absorb everything due at ``now``: completions, fault edges,
        arrivals, ticks."""
        heap = self.busy_heap
        while heap and heap[0][0] <= now:
            _finish, g, ridx = heapq.heappop(heap)
            if ridx < self.act[g]:
                heapq.heappush(self.idle[g], ridx)
            # else: the replica drained outside the autoscaler-active
            # prefix; its free time stays on the list and is picked
            # back up by the rebuild if the group scales out again.
        while self.edge_ptr < len(self.edges) and self.edges[self.edge_ptr][0] <= now:
            _when, kind, grp, arg = self.edges[self.edge_ptr]
            self.edge_ptr += 1
            g = self._gindex[grp]
            if kind == "down":
                self.down[g] = True
            elif kind == "recover":
                self.down[g] = False
            elif kind == "throttle-on":
                self.throttle[grp] = arg
            elif kind == "throttle-off":
                self.throttle.pop(grp, None)
        if self.next_arr < self.n:
            old = self.next_arr
            new_total = int(self.arr_all.searchsorted(now, side="right"))
            if new_total > old:
                self.next_arr = new_total
                counts = np.bincount(self.codes[old:new_total],
                                     minlength=len(self.tenants))
                for t, c in enumerate(counts.tolist()):
                    self.tail[t] += c
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
                                    if free[r] <= now]
        if self.pending_wakeup is not None and now >= self.pending_wakeup:
            self.pending_wakeup = None

    # -- autoscaling -------------------------------------------------------------

    def _window_p99(self) -> float:
        """p99 latency of the batches dispatched since the last tick."""
        window = []
        for t, arr in enumerate(self.arr_t):
            b0, r0 = self.tick_mark[t]
            b1, r1 = len(self.b_finish[t]), self.head[t]
            if b1 > b0:
                lat = np.repeat(self.b_finish[t][b0:b1], self.b_size[t][b0:b1])
                window.append(np.subtract(lat, arr[r0:r1], out=lat))
            self.tick_mark[t] = (b1, r1)
        if not window:
            return 0.0
        return float(np.percentile(np.concatenate(window), 99))

    def _tick(self, when: float) -> None:
        scale = self.autoscale
        queued = self.next_arr - self.completed
        if scale.metric == "queue":
            value = float(queued)
        else:
            value = self._window_p99()
        for g, group in enumerate(self.groups):
            if self.down[g]:
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
                ScalingEvent(when, self.gdev[g], act, after, reason))

    # -- the offer loop ----------------------------------------------------------

    def _offer(self, now: float) -> None:
        """Offer queued work to idle groups until every policy holds.

        Mirrors the classic loop: tenants in oldest-head-first order
        (stable on ties, i.e. spec order), groups in router order
        (amortized per-request latency at the probe batch, device-name
        tie-break); the first (tenant, group) pair whose policy
        dispatches restarts the scan.
        """
        K = len(self.tenants)
        G = len(self.groups)
        head, tail, head_arr = self.head, self.tail, self.head_arr
        gdev = self.gdev
        while True:
            active = [t for t in range(K) if head[t] < tail[t]]
            if not active:
                return
            idle = [g for g in range(G) if self.idle[g] and not self.down[g]]
            if not idle:
                return
            if len(active) > 1:
                active.sort(key=head_arr.__getitem__)
            chosen_t = chosen_g = size = None
            for t in active:
                qlen = tail[t] - head[t]
                cost = self.tcost[t]
                if len(idle) == 1:
                    ranked = idle
                else:
                    probe = max(1, min(qlen, self.probe_cap))
                    ranked = sorted(
                        idle,
                        key=lambda g: (cost.latency(gdev[g], probe) / probe,
                                       gdev[g]))
                oldest_wait = now - head_arr[t]
                for g in ranked:
                    size = self.policies[t].decide(
                        now, qlen, oldest_wait, gdev[g], cost)
                    if size is not None:
                        chosen_t, chosen_g = t, g
                        break
                if size is not None:
                    break
            if size is None:
                self._hold(now, active)
                return
            self._dispatch(chosen_t, chosen_g, size, now)

    def _hold(self, now: float, active: list[int]) -> None:
        wakes = (self.policies[t].next_wakeup(now, self.head_arr[t])
                 for t in active)
        wake = min((w for w in wakes if w is not None and w > now), default=None)
        if wake is not None and (self.pending_wakeup is None
                                 or wake < self.pending_wakeup):
            self.pending_wakeup = wake
        if (self.pending_wakeup is None and self.next_arr >= self.n
                and self.edge_ptr >= len(self.edges)
                and not self.busy_heap):
            names = ",".join(self.policies[t].name for t in active)
            raise RuntimeError(f"policy {names!r} held with no pending events")

    def _dispatch(self, t: int, g: int, size: int, now: float) -> None:
        head = self.head[t]
        qlen = self.tail[t] - head
        size = max(1, min(int(size), qlen))
        device = self.gdev[g]
        duration = self.tcost[t].latency(device, size)
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

        end = head + size
        self.head[t] = end
        arr = self.arr_t[t]
        self.head_arr[t] = float(arr[end]) if end < arr.size else math.inf
        self.b_finish[t].append(finish)
        self.b_size[t].append(size)
        self.b_now[t].append(now)
        self.b_idle[t].append(idle_since)
        self.disp_sum[t] += now * size
        self.serv_sum += (finish - now) * size
        free[ridx] = finish
        heapq.heappush(self.busy_heap, (finish, g, ridx))
        self.batches[g] += 1
        self.requests[g] += size
        self.busy[g] += busy
        self.completed += size
        if finish > self.makespan:
            self.makespan = finish

    # -- run ---------------------------------------------------------------------

    def run(self) -> float:
        if self.n == 0:
            self._fill_requests()
            return 0.0
        first = [float(self.arr_all[0])]
        if self.edges:
            first.append(self.edges[0][0])
        tick = self._next_tick()
        if tick < math.inf:
            first.append(tick)
        now = min(first)
        while self.completed < self.n:
            self._advance(now)
            self._offer(now)
            if self.completed >= self.n:
                break
            nxt = self._next_time(now)
            if nxt == math.inf:
                raise RuntimeError(
                    "fleet event loop stalled with requests pending")
            now = nxt
        for g in range(len(self.groups)):
            self.occ_int[g] += self.act[g] * (self.makespan - self.occ_last[g])
            self.occ_last[g] = self.makespan
        self._fill_requests()
        return self.makespan

    def _fill_requests(self) -> None:
        """Per-request timing from the batch records, one pass per tenant.

        A tenant's batches cover its arrivals in order, so repeating each
        batch's record over its size lines it up with the requests it
        served: latency is ``finish - arrival``; the queue wait sums as
        dispatch instants (kept per batch) minus arrivals; and the
        formation wait is the classic ``max(0, now - max(arrival,
        idle_since))``, which — queued requests arrived at or before
        ``now``, the replica freed at or before it — is a min of two
        non-negative terms. Only the latencies are kept per request; the
        waits only ever surface as means. At most two tenant-sized
        temporaries are alive at once.
        """
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


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _group_stats(engine: _FleetEngine, makespan: float) -> dict[str, GroupStats]:
    out: dict[str, GroupStats] = {}
    for g, group in enumerate(engine.groups):
        mean_rep = (engine.occ_int[g] / makespan if makespan > 0
                    else float(group.replicas))
        denom = mean_rep * makespan
        out[group.device] = GroupStats(
            group=group.device,
            replicas=engine.act[g],
            peak_replicas=engine.peak[g],
            mean_replicas=mean_rep,
            batches=engine.batches[g],
            requests=engine.requests[g],
            busy_time=engine.busy[g],
            utilization=engine.busy[g] / denom if denom > 0 else 0.0,
            mean_batch=(engine.requests[g] / engine.batches[g]
                        if engine.batches[g] else 0.0),
            hop_batches=engine.hop_batches[g],
            hop_time=engine.hop_time[g],
        )
    return out


def _tenant_stats(engine: _FleetEngine, makespan: float) -> dict[str, TenantStats]:
    out: dict[str, TenantStats] = {}
    for i, spec in enumerate(engine.tenants):
        lat = engine.lat_t[i]
        n = int(lat.size)
        if n:
            p50, p95, p99 = np.percentile(lat, [50, 95, 99])
            mean_lat = float(lat.mean())
            mean_queue = (engine.disp_sum[i] - engine.arr_sum[i]) / n
            attainment = (float((lat <= spec.slo).mean())
                          if spec.slo is not None else None)
        else:
            p50 = p95 = p99 = mean_lat = mean_queue = 0.0
            attainment = 1.0 if spec.slo is not None else None
        out[spec.name] = TenantStats(
            tenant=spec.name,
            n_requests=n,
            slo=spec.slo,
            throughput=n / makespan if makespan > 0 else 0.0,
            mean_latency=mean_lat,
            p50_latency=float(p50),
            p95_latency=float(p95),
            p99_latency=float(p99),
            mean_queue_time=mean_queue,
            slo_attainment=attainment,
        )
    return out


def simulate_fleet(
    tenants: Sequence[TenantSpec],
    groups: Sequence[DeviceGroup] | str,
    n_requests: int = 10_000,
    arrival_rate: float | None = None,
    scenario: str = "uniform",
    columns=None,
    autoscale: AutoscalePolicy | None = None,
    faults: FaultPlan | None = None,
    hop_bytes: float = 0.0,
    probe_cap: int = 128,
    seed: int = 0,
    lint: bool = True,
) -> FleetReport:
    """Serve a tenant mix on a fleet of homogeneous device groups.

    Parameters mirror :func:`~repro.serving.simulator.simulate_mixed`
    where they overlap; the differences:

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
        its initial replica count (required for classic parity).
    ``hop_bytes``
        Per-request payload priced through
        :func:`repro.hw.transfer.h2d_time` whenever a tenant's batch
        lands on a different group than its previous one.
    ``probe_cap``
        Probe batch-size cap for the amortized group ranking — the
        group-level analogue of
        :class:`~repro.serving.router.EarliestFinishRouter`'s cap.

    With ``autoscale=None``, ``faults=None`` and ``hop_bytes=0`` the
    result matches the classic simulator's (same devices, earliest-
    finish router) to float round-off; a tier-1 differential test pins
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
    if probe_cap < 1:
        raise ValueError(f"probe_cap must be >= 1, got {probe_cap}")

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
        if len(columns):
            arr = columns.arrivals
            if float(arr[0]) < 0.0:
                raise ValueError("request arrivals must be non-negative")
            if np.any(np.diff(arr) < 0):
                raise ValueError(
                    "request columns must be sorted by arrival time; "
                    "see sort_request_columns")
    n = len(columns)

    engine = _FleetEngine(tenants, groups, columns, autoscale, faults,
                          hop_bytes, probe_cap)
    makespan = engine.run()

    if n:
        # All summary statistics are order-invariant (percentiles, means,
        # threshold counts), so they are computed straight off the
        # engine's per-tenant contiguous latency buffers (grouped by
        # tenant, arrival-ordered within each) and the scalar wait
        # accumulators folded in at dispatch time.
        latencies = np.concatenate(engine.lat_t)
        p50, p95, p99 = np.percentile(latencies, [50, 95, 99])
        mean_latency = float(latencies.mean())
        mean_queue = (sum(engine.disp_sum) - sum(engine.arr_sum)) / n
        mean_formation = engine.form_sum / n
        mean_service = engine.serv_sum / n
    else:
        latencies = np.empty(0)
        p50 = p95 = p99 = 0.0
        mean_latency = mean_queue = mean_formation = mean_service = 0.0

    return FleetReport(
        policy=f"mixed({len(tenants)} tenants)",
        router="earliest-finish",
        n_requests=n,
        arrival_rate=arrival_rate,
        makespan=makespan,
        throughput=n / makespan if makespan > 0 else 0.0,
        mean_latency=mean_latency,
        p50_latency=float(p50),
        p95_latency=float(p95),
        p99_latency=float(p99),
        mean_queue_time=mean_queue,
        mean_formation_wait=mean_formation,
        mean_service_time=mean_service,
        group_stats=_group_stats(engine, makespan),
        tenant_stats=_tenant_stats(engine, makespan),
        scaling_events=tuple(engine.scaling),
        latencies=latencies,
    )
