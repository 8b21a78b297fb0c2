"""The per-arrival event loop: the classic simulator's differential oracle.

``_run_event_loop`` below is the classic serving loop as it stood before
arrivals were deferred while every slot is busy: it schedules the next
arrival event before every offer round, so it visits each arrival
instant whether or not a device could take the work. That is slower but
obviously complete, which makes it the reference the production loop
(:func:`repro.serving.simulator._run_event_loop`) is pinned to. Tests
swap it in with ``monkeypatch.setattr(simulator, "_run_event_loop",
oracle._run_event_loop)`` and require repr-identical results.

Keep this copy frozen: it is a specification, not shared code.
"""

from __future__ import annotations

import heapq
import itertools

from repro.serving.faults import FaultRuntime
from repro.serving.request import Request
from repro.serving.router import Router
from repro.serving.simulator import _Slot, _Tenant


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
