"""The classic serving simulator as it stood before it ran on the fleet
engine: the serving engine's differential oracle.

``_per_arrival_loop`` below is the classic heap loop as it stood before
arrivals were deferred while every slot is busy: it schedules the next
arrival event before every offer round, so it visits each arrival
instant whether or not a device could take the work. Around it sit the
rest of the classic simulator — per-slot state (``_Slot``), per-tenant
queues of ``Request`` objects (``_Tenant``), the slot-label cost wrapper
(``_SlotCost``), the fault runtime with its per-slot, per-request hooks
(``FaultRuntime``) and the report builder (``_summarize``). That is
slower but obviously complete, which makes it the reference the engine
(:class:`repro.serving.fleet._FleetEngine`, run by
:func:`repro.serving.simulator._run_event_loop`) is pinned to. Tests
swap it in with ``monkeypatch.setattr(simulator, "_run_event_loop",
oracle._run_event_loop)`` and require repr-identical results.

Keep this copy frozen: it is a specification, not shared code.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Mapping, Sequence

import numpy as np

from repro.serving.faults import (DegradedMode, DeviceFaultStats, FaultPlan,
                                  FaultStats, RetryPolicy, TenantFaultStats)
from repro.serving.policies import BatchingPolicy
from repro.serving.request import Request, RequestTable
from repro.serving.router import Router
from repro.serving.simulator import (DeviceStats, ServingReport, TenantSpec,
                                     TenantStats)


def _run_event_loop(tenants, devices, columns, index, router, faults, retry,
                    slowdown=1.0) -> ServingReport:
    """The classic simulator behind the engine's call signature (see
    :func:`repro.serving.simulator._run_event_loop`)."""
    names = list(columns.tenants)
    ids = range(len(columns)) if index is None else index.tolist()
    requests = [Request(index=i, arrival=arrival, tenant=names[code])
                for i, arrival, code in zip(ids, columns.arrivals.tolist(),
                                            columns.codes.tolist())]
    slots, by_label, slot_device = _make_slots(tuple(devices))
    runtime = _make_fault_runtime(faults, retry, tenants, slots, slot_device)
    states = {
        spec.name: _Tenant(spec.name, spec.policy,
                           _SlotCost(spec.cost, slot_device, scale=slowdown,
                                     faults=runtime),
                           mode=spec.degraded)
        for spec in tenants
    }
    makespan = (_per_arrival_loop(requests, states, slots, by_label, router,
                                  faults=runtime)
                if requests else 0.0)
    fault_stats = None
    if runtime is not None:
        fault_stats = runtime.build_stats(
            makespan, requests,
            {spec.name: (spec.degraded, spec.slo) for spec in tenants})
    return _summarize(requests, slots, makespan,
                      f"mixed({len(tenants)} tenants)", router.name, None,
                      tenants=tenants, fault_stats=fault_stats)


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
        table=RequestTable.from_requests(requests),
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


class FaultRuntime:
    """Mutable per-run state of one fault plan + retry policy.

    Owned by :func:`repro.serving.simulator._run_event_loop`; maintains
    the conservation counters (``issued == completed + shed + queued +
    on_device + awaiting_retry`` — checked at every event), the live
    throttle scales the cost wrappers consult, and the raw material for
    :class:`FaultStats`.
    """

    def __init__(self, plan: FaultPlan, retry: RetryPolicy,
                 slot_labels: Sequence[str], slot_device: Mapping[str, str]):
        self.plan = plan
        self.retry = retry
        self.happenings = plan.resolve(slot_labels, slot_device)
        self._slot_device = dict(slot_device)
        # Live throttle multiplier per slot (absent == 1.0); _SlotCost reads it.
        self.scale: dict[str, float] = {}
        self._active_throttles: dict[str, list[float]] = {}
        # Conservation counters.
        self.queued = 0
        self.on_device = 0
        self.awaiting_retry = 0
        self.completed = 0
        self.shed = 0
        self.retries = 0
        # Per-slot accounting.
        self._down_since: dict[str, float] = {}
        self._down_windows: dict[str, list[tuple[float, float]]] = {}
        self._stall_time: dict[str, float] = {}
        self._aborted_batches: dict[str, int] = {}
        self._aborted_requests: dict[str, int] = {}
        # Per-tenant accounting.
        self._tenant_shed: dict[str, int] = {}
        self._degraded_requests: dict[str, int] = {}
        self._degraded_since: dict[str, float] = {}
        self._degraded_time: dict[str, float] = {}
        self._degraded_activations: dict[str, int] = {}
        # Recovery-time samples: request index -> last abort time.
        self._abort_time: dict[int, float] = {}
        self.recovery_samples: list[float] = []

    # -- conservation -----------------------------------------------------------

    def check_conservation(self, issued: int) -> None:
        accounted = (self.completed + self.shed + self.queued
                     + self.on_device + self.awaiting_retry)
        if accounted != issued:
            raise RuntimeError(
                f"request conservation violated: issued={issued} but "
                f"completed={self.completed} + shed={self.shed} + "
                f"queued={self.queued} + on_device={self.on_device} + "
                f"awaiting_retry={self.awaiting_retry} = {accounted}")

    # -- event application -------------------------------------------------------

    def apply(self, happening, now: float, by_label, router, push) -> float | None:
        """Apply one fault happening; returns a makespan bump, if any."""
        kind, label, arg = happening
        slot = by_label[label]
        if kind == "down":
            slot.down = True
            router.note_down(label)
            self._down_since[label] = now
            if slot.inflight is not None:
                return self._abort(slot, now, push)
        elif kind == "recover":
            slot.down = False
            router.note_recover(label)
            start = self._down_since.pop(label, now)
            self._down_windows.setdefault(label, []).append((start, now))
            if slot.free_at < now:
                slot.free_at = now
        elif kind == "throttle-on":
            active = self._active_throttles.setdefault(label, [])
            active.append(arg)
            self.scale[label] = float(np.prod(active))
        elif kind == "throttle-off":
            active = self._active_throttles.get(label, [])
            if arg in active:
                active.remove(arg)
            if active:
                self.scale[label] = float(np.prod(active))
            else:
                self.scale.pop(label, None)
        elif kind == "stall":
            if slot.down:
                return None  # a dead device cannot stall further
            self._stall_time[label] = self._stall_time.get(label, 0.0) + arg
            if slot.inflight is not None:
                finish, batch = slot.inflight
                new_finish = finish + arg
                for req in batch:
                    req.finish = new_finish
                slot.inflight = (new_finish, batch)
                slot.free_at = new_finish
                push(new_finish, "free", label)
                return new_finish
            stalled_until = now + arg
            if stalled_until > slot.stalled_until:
                slot.stalled_until = stalled_until
            push(stalled_until, "fault", ("stall-end", label, None))
        # "stall-end" wakes the loop so offers resume; nothing to mutate.
        return None

    def _abort(self, slot, now: float, push) -> None:
        """Abort the in-flight batch on a failing slot; re-queue or shed."""
        finish, batch = slot.inflight
        slot.inflight = None
        size = len(batch)
        slot.free_at = now
        slot.busy_time -= finish - now  # only the executed part counts
        slot.batches -= 1
        slot.requests -= size
        count = slot.histogram.get(size, 0) - 1
        if count > 0:
            slot.histogram[size] = count
        else:
            slot.histogram.pop(size, None)
        self._aborted_batches[slot.label] = (
            self._aborted_batches.get(slot.label, 0) + 1)
        self._aborted_requests[slot.label] = (
            self._aborted_requests.get(slot.label, 0) + size)
        self.on_device -= size
        for req in batch:
            req.dispatch = float("nan")
            req.finish = float("nan")
            req.device = ""
            req.batch_size = 0
            req.formation_wait = 0.0
            req.degraded = False
            req.retries += 1
            if req.retries > self.retry.max_retries:
                self.shed_request(req, now)
            elif (self.retry.deadline is not None
                  and now - req.arrival >= self.retry.deadline):
                self.shed_request(req, now)
            else:
                self.retries += 1
                self._abort_time[req.index] = now
                push(now + self.retry.backoff(req.index, req.retries),
                     "retry", req)
                self.awaiting_retry += 1
        return None

    # -- request lifecycle hooks -------------------------------------------------

    def shed_request(self, req, now: float) -> None:
        req.shed = True
        self.shed += 1
        self._tenant_shed[req.tenant] = self._tenant_shed.get(req.tenant, 0) + 1
        self._abort_time.pop(req.index, None)

    def absorb_retry(self, req, now: float, tenants) -> None:
        """A backoff expired: re-queue the request (or shed past deadline)."""
        self.awaiting_retry -= 1
        if (self.retry.deadline is not None
                and now - req.arrival >= self.retry.deadline):
            self.shed_request(req, now)
            return
        queue = tenants[req.tenant].queue
        if not queue or req.arrival <= queue[0].arrival:
            queue.appendleft(req)
        elif req.arrival >= queue[-1].arrival:
            queue.append(req)
        else:
            items = sorted([*queue, req], key=lambda r: r.arrival)
            queue.clear()
            queue.extend(items)
        self.queued += 1

    def shed_expired(self, tenants, now: float) -> None:
        """Shed queue heads whose deadline expired (queues are arrival-sorted)."""
        deadline = self.retry.deadline
        if deadline is None:
            return
        for tenant in tenants.values():
            queue = tenant.queue
            while queue and now - queue[0].arrival >= deadline:
                self.queued -= 1
                self.shed_request(queue.popleft(), now)

    def note_dispatch(self, size: int, degraded: bool, tenant: str) -> None:
        self.queued -= size
        self.on_device += size
        if degraded:
            self._degraded_requests[tenant] = (
                self._degraded_requests.get(tenant, 0) + size)

    def complete(self, label: str, now: float, by_label) -> None:
        """A slot's free event fired: finalize its batch if genuinely done."""
        slot = by_label[label]
        inflight = slot.inflight
        if inflight is None or inflight[0] > now:
            return  # stale event (aborted batch, or stall-delayed finish)
        _, batch = inflight
        slot.inflight = None
        self.on_device -= len(batch)
        self.completed += len(batch)
        if not self._abort_time:
            return  # no retried request is outstanding: nothing recovers
        for req in batch:
            aborted_at = self._abort_time.pop(req.index, None)
            if aborted_at is not None:
                self.recovery_samples.append(req.finish - aborted_at)

    def update_degraded(self, tenant, now: float) -> None:
        """Enter/exit degraded mode on queue-pressure hysteresis."""
        mode = tenant.mode
        if mode is None or not tenant.queue:
            return
        oldest_wait = now - tenant.queue[0].arrival
        if not tenant.degraded and oldest_wait >= mode.enter_wait:
            tenant.degraded = True
            tenant.slot_cost.extra_scale = mode.latency_factor
            self._degraded_since[tenant.name] = now
            self._degraded_activations[tenant.name] = (
                self._degraded_activations.get(tenant.name, 0) + 1)
        elif tenant.degraded and oldest_wait <= mode.exit_wait:
            tenant.degraded = False
            tenant.slot_cost.extra_scale = 1.0
            start = self._degraded_since.pop(tenant.name, now)
            self._degraded_time[tenant.name] = (
                self._degraded_time.get(tenant.name, 0.0) + (now - start))

    # -- reporting ---------------------------------------------------------------

    def build_stats(self, makespan: float, requests, tenants) -> FaultStats:
        """Collapse the run's fault bookkeeping into a :class:`FaultStats`.

        ``tenants`` maps tenant name to its :class:`DegradedMode` (or
        ``None``) and SLO, as ``(mode, slo)`` pairs.
        """
        # Close windows still open at drain time.
        down_windows = {k: list(v) for k, v in self._down_windows.items()}
        for label, since in self._down_since.items():
            down_windows.setdefault(label, []).append((since, makespan))
        for name, since in self._degraded_since.items():
            self._degraded_time[name] = (
                self._degraded_time.get(name, 0.0) + (makespan - since))
        self._degraded_since.clear()

        throttle_windows: dict[str, list[tuple[float, float, float]]] = {}
        for when, _, kind, slot, arg in self.happenings:
            if kind != "throttle-on":
                continue
            until = next((w for w, _, k, s, a in self.happenings
                          if k == "throttle-off" and s == slot and a == arg
                          and w > when), makespan)
            start = min(when, makespan)
            end = min(until, makespan)
            if end > start:
                throttle_windows.setdefault(slot, []).append((start, end, arg))

        devices: dict[str, DeviceFaultStats] = {}
        labels = (set(down_windows) | set(throttle_windows)
                  | set(self._stall_time) | set(self._aborted_batches))
        for label in sorted(labels):
            windows = down_windows.get(label, [])
            throttles = throttle_windows.get(label, [])
            devices[label] = DeviceFaultStats(
                slot=label,
                device=self._slot_device.get(label, label),
                downtime=sum(b - a for a, b in windows),
                down_windows=windows,
                throttle_time=sum(b - a for a, b, _ in throttles),
                throttle_windows=throttles,
                stall_time=self._stall_time.get(label, 0.0),
                aborted_batches=self._aborted_batches.get(label, 0),
                aborted_requests=self._aborted_requests.get(label, 0),
            )

        # One pass over the requests, and none when nothing was ever
        # aborted (no request has retries) or served degraded.
        retry_histogram: dict[int, int] = {}
        degraded_latencies: dict[str, list[float]] = {}
        if self._aborted_requests or self._degraded_requests:
            for req in requests:
                if req.retries:
                    retry_histogram[req.retries] = (
                        retry_histogram.get(req.retries, 0) + 1)
                if req.degraded and not req.shed:
                    degraded_latencies.setdefault(req.tenant, []).append(
                        req.latency)

        tenant_stats: dict[str, TenantFaultStats] = {}
        names = (set(tenants) | set(self._tenant_shed)
                 | set(self._degraded_requests))
        for name in sorted(names):
            mode, slo = tenants.get(name, (None, None))
            attainment = None
            degraded = degraded_latencies.get(name)
            if slo is not None and degraded:
                attainment = float(np.mean(np.array(degraded) <= slo))
            tenant_stats[name] = TenantFaultStats(
                tenant=name,
                shed=self._tenant_shed.get(name, 0),
                degraded_available=mode is not None,
                degraded_requests=self._degraded_requests.get(name, 0),
                degraded_slo_attainment=attainment,
                degraded_time=self._degraded_time.get(name, 0.0),
                degraded_activations=self._degraded_activations.get(name, 0),
                accuracy_cost=mode.accuracy_cost if mode is not None else None,
            )

        samples = np.array(self.recovery_samples, dtype=np.float64)
        p50, p99 = ((float(np.percentile(samples, 50)),
                     float(np.percentile(samples, 99)))
                    if samples.size else (0.0, 0.0))
        return FaultStats(
            plan_events=len(self.plan.events),
            issued=self.completed + self.shed,
            completed=self.completed,
            shed=self.shed,
            retries=self.retries,
            retry_histogram=dict(sorted(retry_histogram.items())),
            recovery_p50=p50,
            recovery_p99=p99,
            devices=devices,
            tenants=tenant_stats,
        )



def _per_arrival_loop(
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

        # Absorb every arrival due by `now`; schedule the next one exactly once.
        while next_arrival < n_requests and requests[next_arrival].arrival <= now:
            req = requests[next_arrival]
            tenants[req.tenant].queue.append(req)
            next_arrival += 1
            if faults is not None:
                faults.queued += 1
        if next_arrival < n_requests and scheduled_arrival < next_arrival:
            push(requests[next_arrival].arrival, "arrival")
            scheduled_arrival = next_arrival

        if faults is not None:
            # No request is ever silently lost: everything issued so far
            # is queued, on a device, awaiting retry, completed or shed.
            faults.shed_expired(tenants, now)
            faults.check_conservation(next_arrival)

        # Offer queued work to idle devices until every policy holds or
        # work/devices run out.
        while True:
            active = [t for t in tenants.values() if t.queue]
            if not active:
                break
            if faults is None:
                idle = [s.label for s in slots if s.free_at <= now]
            else:
                idle = [s.label for s in slots
                        if s.free_at <= now and not s.down
                        and s.stalled_until <= now]
            if not idle:
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
                if not heap:
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
    return makespan
