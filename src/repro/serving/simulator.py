"""Discrete-event, open-loop serving simulator (single- and multi-tenant).

Generalizes the paper's Sec. 5.1 closed 10,000-task batch run into the
system a deployment actually runs: requests arrive over time (Poisson or
all-at-once), a dynamic batching policy groups them, a router places each
batch on one of several heterogeneous devices, and per-request latency
decomposes into queueing, batch formation and compute. Batch compute
times come from a cost model (profiled and memoized per
(workload, fusion, batch size, device) — see
:mod:`repro.serving.costmodel`), so a simulation of millions of requests
costs milliseconds, not GPU-hours.

:func:`simulate` serves one workload; :func:`simulate_mixed` serves a
*mix* of tenants concurrently, the way the paper's fleet runs several of
the nine multimodal workloads on shared devices. Each
:class:`TenantSpec` carries its own cost model, batching policy and SLO;
tenants keep separate FIFO queues, batches never mix tenants (different
workloads cannot share a batch), and every policy/router decision sees
the deciding tenant's own latency curves. The report then breaks
latency and SLO attainment down per tenant (:class:`TenantStats`).

Event loop: a heap holds device-free times, policy wake-ups and — only
while some device is idle — the next arrival. At each event the
simulator absorbs every arrival due by then into the per-tenant FIFO
queues, then repeatedly offers work to idle devices — tenants in
oldest-head-of-queue-first order, slots in router order; a policy either
dispatches a batch (finalizing those requests' timing at dispatch, since
compute time is deterministic) or holds, and when every tenant holds on
every idle slot the earliest policy wake-up is scheduled. While every
device is busy no arrival is visited: the next free (or fault, retry,
wake-up) event absorbs them in bulk, so the loop's work scales with
dispatch decisions rather than with arrivals.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.serving.costmodel import CallableCostModel
from repro.serving.faults import (DegradedMode, FaultPlan, FaultRuntime,
                                  FaultStats, RetryPolicy)
from repro.serving.policies import BatchingPolicy
from repro.serving.request import (Request, closed_arrivals, is_finite_number,
                                   make_requests, poisson_arrivals)
from repro.serving.router import EarliestFinishRouter, Router


@dataclass(frozen=True)
class DeviceStats:
    """Per-device accounting of one simulation."""

    slot: str  # unique slot label, e.g. "2080ti" or "2080ti#1"
    device: str  # device model name the slot runs
    batches: int
    requests: int
    busy_time: float
    utilization: float  # busy time / makespan
    mean_batch: float
    batch_histogram: dict[int, int]  # batch size -> dispatch count


@dataclass(frozen=True)
class TenantStats:
    """Per-tenant latency / SLO breakdown of one mixed simulation."""

    tenant: str
    n_requests: int
    slo: float | None
    throughput: float  # this tenant's requests / overall makespan
    mean_latency: float
    p50_latency: float
    p95_latency: float
    p99_latency: float
    mean_queue_time: float
    slo_attainment: float | None  # None when the tenant declared no SLO


@dataclass(frozen=True)
class ServingReport:
    """Everything one open-loop serving simulation produced."""

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
    device_stats: dict[str, DeviceStats]
    requests: list[Request] = field(repr=False)
    tenant_stats: dict[str, TenantStats] = field(default_factory=dict)
    # Background fine-tuning jobs that shared the devices during the run
    # (see repro.serving.finetune); empty for pure-inference simulations.
    finetune_stats: dict = field(default_factory=dict)
    inference_slowdown: float = 1.0  # batch-latency multiplier the jobs imposed
    # What the fault plan did to the run (see repro.serving.faults);
    # None when the run had no fault injection at all.
    fault_stats: FaultStats | None = None

    def slo_attainment(self, slo: float) -> float:
        """Fraction of completed requests whose end-to-end latency met ``slo``.

        Shed requests never complete and count as misses; an empty
        simulation misses nothing (attainment is vacuously 1).
        """
        if not self.requests:
            return 1.0
        met = sum(1 for r in self.requests if not r.shed and r.latency <= slo)
        return met / len(self.requests)

    @property
    def completed(self) -> int:
        """Requests that actually finished (``n_requests`` minus sheds)."""
        shed = self.fault_stats.shed if self.fault_stats is not None else 0
        return self.n_requests - shed

    def batch_sizes_used(self) -> dict[str, list[int]]:
        """Distinct dispatched batch sizes per device slot (sorted)."""
        return {slot: sorted(s.batch_histogram) for slot, s in self.device_stats.items()}

    @property
    def total_utilization(self) -> float:
        """Mean per-slot utilization: busy time / makespan, averaged over slots."""
        busy = sum(s.busy_time for s in self.device_stats.values())
        n = len(self.device_stats)
        return busy / (n * self.makespan) if self.makespan > 0 else 0.0


@dataclass
class TenantSpec:
    """One tenant (workload) of a mixed simulation.

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


class _SlotCost:
    """Maps unique slot labels to device names before cost lookups.

    ``underlying`` exposes the wrapped cost model: the wrapper itself is
    rebuilt every simulation, so anything memoizing per cost model (e.g.
    :class:`~repro.serving.policies.AdaptiveSLOPolicy`'s drain batch) must
    key on the underlying model, via :meth:`device_name` for the device
    part so memos survive runs with different slot labellings.

    ``scale`` multiplies every latency uniformly — the inference-partition
    slowdown when background fine-tuning jobs hold device shares. Uniform
    scaling preserves the throughput-optimal batch (``argmax k/latency``),
    so the drain memo keyed on the underlying model stays valid across
    runs with different scales.
    """

    def __init__(self, cost, slot_device: dict[str, str], scale: float = 1.0,
                 faults: FaultRuntime | None = None):
        self.underlying = cost
        self._slot_device = slot_device
        self._scale = scale
        # Fault-injection hooks, both uniform multipliers so the drain
        # memo stays valid: live per-slot thermal-throttle factors
        # (faults.scale) and the tenant's degraded-mode factor.
        self._faults = faults
        self.extra_scale = 1.0

    def latency(self, slot: str, batch_size: int) -> float:
        base = self.underlying.latency(self._slot_device.get(slot, slot), batch_size)
        if self._scale != 1.0:
            base *= self._scale
        if self._faults is not None:
            throttle = self._faults.scale.get(slot)
            if throttle is not None:
                base *= throttle
            if self.extra_scale != 1.0:
                base *= self.extra_scale
        return base

    def device_name(self, slot: str) -> str:
        """Device model name behind a slot label (identity for plain names)."""
        return self._slot_device.get(slot, slot)


class _Slot:
    """One device execution slot."""

    __slots__ = ("label", "device", "free_at", "busy_time", "batches",
                 "requests", "histogram", "down", "stalled_until", "inflight")

    def __init__(self, label: str, device: str):
        self.label = label
        self.device = device
        self.free_at = 0.0
        self.busy_time = 0.0
        self.batches = 0
        self.requests = 0
        self.histogram: dict[int, int] = {}
        # Fault-injection state (only consulted when a plan is active):
        # down slots accept no work, stalled slots resume at stalled_until,
        # and inflight tracks the running batch as (finish, [requests]) so
        # a device failure can abort it.
        self.down = False
        self.stalled_until = 0.0
        self.inflight: tuple[float, list[Request]] | None = None


class _Tenant:
    """Run-time state of one tenant: its FIFO queue and slot-aware cost."""

    __slots__ = ("name", "policy", "queue", "slot_cost", "mode", "degraded")

    def __init__(self, name: str, policy: BatchingPolicy, slot_cost: _SlotCost,
                 mode: DegradedMode | None = None):
        self.name = name
        self.policy = policy
        self.queue: deque[Request] = deque()
        self.slot_cost = slot_cost
        self.mode = mode  # graceful-degradation config, if declared
        self.degraded = False  # currently serving in degraded mode


def _make_slots(devices: tuple[str, ...]) -> tuple[list[_Slot], dict[str, _Slot], dict[str, str]]:
    """Expand device names into labelled slots (``name#i`` for repeats)."""
    totals: dict[str, int] = {}
    for name in devices:
        totals[name] = totals.get(name, 0) + 1
    counts: dict[str, int] = {}
    slots: list[_Slot] = []
    for name in devices:
        n_seen = counts.get(name, 0)
        label = name if totals[name] == 1 else f"{name}#{n_seen}"
        counts[name] = n_seen + 1
        slots.append(_Slot(label, name))
    by_label = {s.label: s for s in slots}
    slot_device = {s.label: s.device for s in slots}
    return slots, by_label, slot_device


def slot_labels(devices: tuple[str, ...]) -> list[str]:
    """Slot labels a device tuple expands to (``name#i`` for repeats).

    Chaos-scenario builders use this to target individual slots of a
    pool without running a simulation.
    """
    slots, _, _ = _make_slots(devices)
    return [s.label for s in slots]


def validate_fault_plan(plan: FaultPlan, devices: tuple[str, ...]) -> None:
    """Validate ``plan`` against a device pool without running anything.

    Raises :class:`~repro.serving.faults.FaultPlanError` exactly as the
    simulation entry points would — lets a CLI fail fast on a malformed
    plan before any profiling happens.
    """
    slots, _, slot_device = _make_slots(devices)
    plan.resolve([s.label for s in slots], slot_device)


def _run_event_loop(
    requests: list[Request],
    tenants: dict[str, _Tenant],
    slots: list[_Slot],
    by_label: dict[str, _Slot],
    router: Router,
    faults: FaultRuntime | None = None,
) -> float:
    """Drive the heap until every request is dispatched; returns makespan.

    With a fault runtime attached the loop additionally processes fault
    happenings (device down/recover, throttle edges, stalls) and retry
    wake-ups, tracks in-flight batches so failures can abort them, and
    runs until every request either completed or was shed — checking the
    request-conservation invariant at every event. Without one, the
    fault branches are skipped entirely and the schedule is bit-identical
    to the pre-fault simulator.
    """
    n_requests = len(requests)
    heap: list[tuple[float, int, str, object]] = []
    tick = itertools.count()  # tie-break so heap never compares payloads
    next_arrival = 0
    scheduled_arrival = -1  # highest arrival index with an event in the heap
    pending_wakeup: float | None = None  # earliest wakeup event in the heap

    def push(time: float, tag: str, payload: object = None) -> None:
        heapq.heappush(heap, (time, next(tick), tag, payload))

    push(requests[0].arrival, "arrival")
    scheduled_arrival = 0
    dispatched = 0
    makespan = 0.0

    if faults is not None:
        for when, _seq, kind, slot_label, arg in faults.happenings:
            push(when, "fault", (kind, slot_label, arg))

    def finished() -> bool:
        if faults is None:
            # Dispatch finalizes timing, so dispatched == done.
            return dispatched >= n_requests
        # Failures can abort dispatched batches; only completion or
        # shedding retires a request.
        return faults.completed + faults.shed >= n_requests

    while not finished():
        now, _, tag, payload = heapq.heappop(heap)
        if tag == "wakeup" and pending_wakeup is not None and now >= pending_wakeup:
            pending_wakeup = None
        elif faults is not None:
            if tag == "fault":
                bump = faults.apply(payload, now, by_label, router, push)
                if bump is not None:
                    makespan = max(makespan, bump)
            elif tag == "retry":
                faults.absorb_retry(payload, now, tenants)
            elif tag == "free":
                faults.complete(payload, now, by_label)

        # Absorb every arrival due by `now`, including those no event visited.
        while next_arrival < n_requests and requests[next_arrival].arrival <= now:
            req = requests[next_arrival]
            tenants[req.tenant].queue.append(req)
            next_arrival += 1
            if faults is not None:
                faults.queued += 1

        if faults is not None:
            # No request is ever silently lost: everything issued so far
            # is queued, on a device, awaiting retry, completed or shed.
            faults.shed_expired(tenants, now)
            faults.check_conservation(next_arrival)

        # Offer queued work to idle devices until every policy holds or
        # work/devices run out. `idle` is current whenever the loop exits.
        while True:
            if faults is None:
                idle = [s.label for s in slots if s.free_at <= now]
            else:
                idle = [s.label for s in slots
                        if s.free_at <= now and not s.down
                        and s.stalled_until <= now]
            if not idle:
                break
            active = [t for t in tenants.values() if t.queue]
            if not active:
                break
            if len(active) > 1:
                # FIFO across tenants: offer the oldest waiting head first.
                active.sort(key=lambda t: t.queue[0].arrival)
            # A hold is per-(tenant, device): offer every tenant's queue to
            # every idle slot (ranked per tenant — placement sees *that*
            # tenant's latency curves) before giving up on this instant.
            tenant = None
            slot = None
            size = None
            for tenant in active:
                queue = tenant.queue
                if faults is not None:
                    faults.update_degraded(tenant, now)
                # Ranking a single idle slot is a no-op; skipping it also
                # keeps legacy callable cost models (defined only up to
                # their batch cap) away from the router's larger probes.
                ranked = (idle if len(idle) == 1
                          else router.rank(idle, len(queue), tenant.slot_cost))
                oldest_wait = now - queue[0].arrival
                for label in ranked:
                    size = tenant.policy.decide(now, len(queue), oldest_wait,
                                                label, tenant.slot_cost)
                    if size is not None:
                        slot = by_label[label]
                        break
                if size is not None:
                    break
            if size is None:
                wakes = (t.policy.next_wakeup(now, t.queue[0].arrival) for t in active)
                wake = min((w for w in wakes if w is not None and w > now),
                           default=None)
                if wake is not None and (pending_wakeup is None or wake < pending_wakeup):
                    push(wake, "wakeup")
                    pending_wakeup = wake
                if not heap and next_arrival >= n_requests:
                    names = ",".join(t.policy.name for t in active)
                    raise RuntimeError(
                        f"policy {names!r} held with no pending events")
                break
            queue = tenant.queue
            size = max(1, min(size, len(queue)))
            duration = tenant.slot_cost.latency(slot.label, size)
            if duration <= 0:
                raise ValueError("batch_time must return a positive duration")
            idle_since = slot.free_at
            finish = now + duration
            if faults is None:
                for _ in range(size):
                    req = queue.popleft()
                    req.dispatch = now
                    req.finish = finish
                    req.device = slot.label
                    req.batch_size = size
                    req.formation_wait = max(0.0, now - max(req.arrival, idle_since))
            else:
                degraded = tenant.degraded
                batch: list[Request] = []
                for _ in range(size):
                    req = queue.popleft()
                    req.dispatch = now
                    req.finish = finish
                    req.device = slot.label
                    req.batch_size = size
                    req.formation_wait = max(0.0, now - max(req.arrival, idle_since))
                    req.degraded = degraded
                    batch.append(req)
                if slot.inflight is not None:
                    # The slot's free event is still in the heap (tie at
                    # `now`); absorb the finished batch before overwriting
                    # so it isn't lost. The pending event goes stale.
                    faults.complete(slot.label, now, by_label)
                slot.inflight = (finish, batch)
                faults.note_dispatch(size, degraded, tenant.name)
            slot.free_at = finish
            slot.busy_time += duration
            slot.batches += 1
            slot.requests += size
            slot.histogram[size] = slot.histogram.get(size, 0) + 1
            router.note_dispatch(slot.label)
            dispatched += size
            makespan = max(makespan, finish)
            push(finish, "free", slot.label)

        # An arrival is a dispatch opportunity only while some slot is
        # idle. Slots go idle only at events (free, recover, stall-end), so
        # while all are busy the next such event absorbs every arrival due
        # by then, in order, before its offers.
        if idle and scheduled_arrival < next_arrival < n_requests:
            push(requests[next_arrival].arrival, "arrival")
            scheduled_arrival = next_arrival
    return makespan


def _timing_columns(requests: list[Request]) -> tuple[np.ndarray, ...]:
    """One pass over the request objects → (arrival, dispatch, finish,
    formation_wait) columns; a single fromiter instead of four
    per-attribute walks."""
    table = np.fromiter(
        ((r.arrival, r.dispatch, r.finish, r.formation_wait) for r in requests),
        dtype=np.dtype((np.float64, 4)), count=len(requests),
    ).reshape(len(requests), 4)
    return table[:, 0], table[:, 1], table[:, 2], table[:, 3]


def _tenant_breakdown(
    requests: list[Request],
    latencies: np.ndarray,
    queue_times: np.ndarray,
    makespan: float,
    tenants: Sequence[TenantSpec],
) -> dict[str, TenantStats]:
    """Per-tenant latency / SLO stats over the finished request stream."""
    index = {spec.name: i for i, spec in enumerate(tenants)}
    codes = np.fromiter((index[r.tenant] for r in requests),
                        dtype=np.int64, count=len(requests))
    out: dict[str, TenantStats] = {}
    for i, spec in enumerate(tenants):
        mask = codes == i
        n = int(mask.sum())
        if n:
            lat = latencies[mask]
            p50, p95, p99 = np.percentile(lat, [50, 95, 99])
            mean_lat = float(lat.mean())
            mean_queue = float(queue_times[mask].mean())
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


def _summarize(
    requests: list[Request],
    slots: list[_Slot],
    makespan: float,
    policy_name: str,
    router_name: str,
    arrival_rate: float | None,
    tenants: Sequence[TenantSpec] | None = None,
    finetune_stats: dict | None = None,
    inference_slowdown: float = 1.0,
    fault_stats: FaultStats | None = None,
) -> ServingReport:
    """Collapse finished requests + slot accounting into a report.

    One pass over the requests builds every timing column; the latency /
    queue / service decompositions and all three percentiles fall out of
    array arithmetic instead of per-request property walks. Handles the
    empty stream (``n_requests=0``) with an all-zero, well-formed report.

    Shed requests (fault runs only) have no completion timing: latency
    statistics cover completed requests, ``n_requests`` stays the issued
    total, and throughput counts only completed requests.
    """
    n_requests = len(requests)
    completed_requests = requests
    if fault_stats is not None and fault_stats.shed:
        completed_requests = [r for r in requests if not r.shed]
    n_completed = len(completed_requests)
    if n_completed:
        arrival_col, dispatch_col, finish_col, formation_col = (
            _timing_columns(completed_requests))
        latencies = finish_col - arrival_col
        queue_times = dispatch_col - arrival_col
        service_times = finish_col - dispatch_col
        p50, p95, p99 = np.percentile(latencies, [50, 95, 99])
        mean_latency = float(latencies.mean())
        mean_queue = float(queue_times.mean())
        mean_formation = float(formation_col.mean())
        mean_service = float(service_times.mean())
    else:
        latencies = queue_times = np.empty(0)
        p50 = p95 = p99 = 0.0
        mean_latency = mean_queue = mean_formation = mean_service = 0.0
    stats = {
        s.label: DeviceStats(
            slot=s.label,
            device=s.device,
            batches=s.batches,
            requests=s.requests,
            busy_time=s.busy_time,
            utilization=s.busy_time / makespan if makespan > 0 else 0.0,
            mean_batch=s.requests / s.batches if s.batches else 0.0,
            batch_histogram=dict(sorted(s.histogram.items())),
        )
        for s in slots
    }
    tenant_stats = (
        _tenant_breakdown(completed_requests, latencies, queue_times, makespan,
                          tenants)
        if tenants is not None else {}
    )
    return ServingReport(
        policy=policy_name,
        router=router_name,
        n_requests=n_requests,
        arrival_rate=arrival_rate,
        makespan=makespan,
        throughput=n_completed / makespan if makespan > 0 else 0.0,
        mean_latency=mean_latency,
        p50_latency=float(p50),
        p95_latency=float(p95),
        p99_latency=float(p99),
        mean_queue_time=mean_queue,
        mean_formation_wait=mean_formation,
        mean_service_time=mean_service,
        device_stats=stats,
        requests=requests,
        tenant_stats=tenant_stats,
        finetune_stats=finetune_stats or {},
        inference_slowdown=inference_slowdown,
        fault_stats=fault_stats,
    )


def _make_fault_runtime(
    faults: FaultPlan | None,
    retry: RetryPolicy | None,
    tenants: Sequence[TenantSpec] | None,
    slots: list[_Slot],
    slot_device: dict[str, str],
) -> FaultRuntime | None:
    """Build the per-run fault runtime, or ``None`` for a fault-free run.

    Any fault input — a plan (even an empty one), a retry policy (its
    deadline sheds without device failures), or a tenant with a declared
    degraded mode — activates the fault path; plan validation happens
    here, before the event loop, so a malformed plan raises
    :class:`~repro.serving.faults.FaultPlanError` instead of deadlocking.
    """
    degraded = any(spec.degraded is not None for spec in tenants or ())
    if faults is None and retry is None and not degraded:
        return None
    return FaultRuntime(faults or FaultPlan(), retry or RetryPolicy(),
                        [s.label for s in slots], slot_device)


def simulate(
    cost,
    policy: BatchingPolicy,
    devices: tuple[str, ...] = ("2080ti",),
    n_requests: int = 10_000,
    arrival_rate: float | None = None,
    router: Router | None = None,
    seed: int = 0,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
) -> ServingReport:
    """Run one open-loop serving simulation.

    Parameters
    ----------
    cost:
        Cost model with ``latency(device, batch_size) -> seconds``; a bare
        ``batch_time(k)`` callable is wrapped automatically.
    policy:
        Dynamic batching policy (see :mod:`repro.serving.policies`).
    devices:
        Device model names to serve on; repeat a name for multiple
        instances (slots get ``name#i`` labels).
    n_requests:
        Total requests to serve; ``0`` returns a well-formed empty report.
    arrival_rate:
        Mean arrivals/second (Poisson); ``None`` = all at t=0 (the
        paper's closed-batch setting).
    router:
        Placement strategy across idle devices; default earliest-finish.
    faults:
        Declarative fault plan (:class:`~repro.serving.faults.FaultPlan`)
        injected into the run; an empty plan reproduces the fault-free
        schedule bit-identically. ``retry`` governs how aborted requests
        are retried or shed (default :class:`RetryPolicy`).
    """
    if not devices:
        raise ValueError("need at least one device")
    if callable(cost) and not hasattr(cost, "latency"):
        cost = CallableCostModel(cost)
    router = router or EarliestFinishRouter()

    if arrival_rate is None:
        arrivals = closed_arrivals(n_requests)
    else:
        arrivals = poisson_arrivals(n_requests, arrival_rate, seed=seed)
    requests = make_requests(arrivals)

    slots, by_label, slot_device = _make_slots(devices)
    fault_runtime = _make_fault_runtime(faults, retry, None, slots, slot_device)
    tenant = _Tenant("", policy, _SlotCost(cost, slot_device,
                                           faults=fault_runtime))
    makespan = (
        _run_event_loop(requests, {"": tenant}, slots, by_label, router,
                        faults=fault_runtime)
        if requests else 0.0
    )
    fault_stats = None
    if fault_runtime is not None:
        fault_stats = fault_runtime.build_stats(makespan, requests,
                                                {"": (None, None)})
    return _summarize(requests, slots, makespan, policy.name, router.name,
                      arrival_rate, fault_stats=fault_stats)


def simulate_mixed(
    tenants: Sequence[TenantSpec],
    devices: tuple[str, ...] = ("2080ti",),
    n_requests: int = 10_000,
    arrival_rate: float | None = None,
    scenario: str = "uniform",
    requests: list[Request] | None = None,
    router: Router | None = None,
    finetune: Sequence | None = None,
    seed: int = 0,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
    lint: bool = True,
) -> ServingReport:
    """Serve a mix of tenants concurrently on a shared device pool.

    Each tenant keeps its own FIFO queue, cost model, batching policy and
    SLO; batches never mix tenants, and placement decisions are made
    against the deciding tenant's latency curves. When ``requests`` is
    not given, the traffic mix is generated by the named ``scenario``
    (see :mod:`repro.serving.scenarios`) from the tenants' ``weight``
    fields; pass a pre-built, tenant-tagged request list to replay a
    custom stream (the list is copied, so the same stream can be replayed
    across runs without one run's timings clobbering another report's).
    The report carries per-tenant latency/SLO breakdowns in
    ``tenant_stats``.

    ``finetune`` adds background training jobs
    (:class:`~repro.serving.finetune.FinetuneJob`): each holds a stream
    share of every device, inference batches slow down by
    ``1 / (1 - sum(shares))``, and the report's ``finetune_stats`` records
    the training steps each job completed during the run's makespan.

    ``faults`` injects a declarative fault plan
    (:class:`~repro.serving.faults.FaultPlan`) — device failures abort
    in-flight batches (re-queued under ``retry``, shed past its bounds),
    throttle windows slow devices, and tenants with a declared
    ``degraded`` mode shed an encoder under pressure. The report's
    ``fault_stats`` accounts for all of it; background fine-tuning jobs
    additionally checkpoint/restart around each slot's down windows. An
    empty plan reproduces the fault-free schedule bit-identically.
    """
    if not tenants:
        raise ValueError("need at least one tenant")
    names = [spec.name for spec in tenants]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate tenant names: {names}")
    if not devices:
        raise ValueError("need at least one device")
    if lint:
        # Pre-run static lint: the tenant set and the fault plan are both
        # declarative, so errors (an unreachable recover, a plan that
        # blacks out the whole pool) are caught here in microseconds
        # instead of surfacing as a wrong number mid-simulation. Opt out
        # with lint=False to study a deliberately broken configuration.
        from repro.lint import check, lint_fault_plan, lint_tenants

        pre = lint_tenants(tenants, source="simulate_mixed")
        if faults is not None and not faults.empty:
            horizon = (n_requests / arrival_rate
                       if requests is None and arrival_rate else None)
            pre.extend(lint_fault_plan(
                faults, source="simulate_mixed",
                devices=slot_labels(tuple(devices)), horizon=horizon))
        check(pre, what="serving configuration")
    router = router or EarliestFinishRouter()

    slowdown = 1.0
    if finetune:
        from repro.serving.finetune import inference_slowdown

        slowdown = inference_slowdown(finetune)

    if requests is None:
        from repro.serving.scenarios import scenario_requests

        requests = scenario_requests(scenario, tenants, n_requests=n_requests,
                                     arrival_rate=arrival_rate, seed=seed)
    else:
        unknown = {r.tenant for r in requests} - set(names)
        if unknown:
            raise ValueError(f"requests reference unknown tenants {sorted(unknown)}")
        # Fresh copies (timing fields reset): the loop fills them in
        # place, and the caller's stream must stay replayable.
        requests = [Request(index=r.index, arrival=r.arrival, tenant=r.tenant)
                    for r in requests]
        arrivals = np.fromiter((r.arrival for r in requests),
                               dtype=np.float64, count=len(requests))
        if arrivals.size and np.any(np.diff(arrivals) < 0):
            requests.sort(key=lambda r: r.arrival)

    slots, by_label, slot_device = _make_slots(devices)
    fault_runtime = _make_fault_runtime(faults, retry, tenants, slots,
                                        slot_device)
    states = {
        spec.name: _Tenant(spec.name, spec.policy,
                           _SlotCost(spec.cost, slot_device, scale=slowdown,
                                     faults=fault_runtime),
                           mode=spec.degraded)
        for spec in tenants
    }
    makespan = (
        _run_event_loop(requests, states, slots, by_label, router,
                        faults=fault_runtime)
        if requests else 0.0
    )
    fault_stats = None
    if fault_runtime is not None:
        fault_stats = fault_runtime.build_stats(
            makespan, requests,
            {spec.name: (spec.degraded, spec.slo) for spec in tenants})
    finetune_stats = None
    if finetune:
        from repro.serving.finetune import finetune_progress

        down_windows = None
        if fault_stats is not None:
            down_windows = {label: stats.down_windows
                            for label, stats in fault_stats.devices.items()
                            if stats.down_windows}
        finetune_stats = finetune_progress(finetune, slot_device, makespan,
                                           down_windows=down_windows)
    return _summarize(requests, slots, makespan,
                      f"mixed({len(tenants)} tenants)", router.name,
                      arrival_rate, tenants=tenants,
                      finetune_stats=finetune_stats,
                      inference_slowdown=slowdown,
                      fault_stats=fault_stats)
