"""Stream-race, serving-timeline, fault-plan and config rules (MMB3xx-5xx).

Four artifact kinds live here:

* ``schedule`` — :class:`~repro.hw.streams.StreamSchedule`: the stream
  race detector. The scheduler itself builds legal schedules, so these
  rules guard hand-built and deserialized schedules (and future schedule
  transformations): overlapping windows on one stream, device share sums
  over 1.0, windows running past the makespan.
* ``serving`` — :class:`~repro.serving.fleet.ServingReport`: replay
  checks over the recorded request timeline (the report's request
  columns, ``report.table``). Cross-tenant batch leakage
  (two tenants' requests riding one dispatched batch) and
  dispatch-to-down-slot races (a request dispatched inside a fault
  window, replayed from ``fault_stats``).
* ``fault_plan`` — :class:`~repro.serving.faults.FaultPlan`, statically
  (without slot expansion): unreachable recovers, throttle/stall windows
  past the horizon, plans that down every device at once, devices that
  never come back.
* ``tenants`` / ``registry`` — config lint: duplicate tenant names,
  shadowed or empty op-mapping registries.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.lint.core import Diagnostic, LintContext, rule

_TOL = 1e-9


# ---------------------------------------------------------------------------
# MMB3xx — stream schedules
# ---------------------------------------------------------------------------


@rule("MMB301", "error", "schedule",
      "stream race: overlapping kernel windows on one stream")
def stream_overlap(schedule, ctx: LintContext) -> Iterator[Diagnostic]:
    """One stream runs its kernels back-to-back: sorted by start, every
    window must begin at or after the previous one ends."""
    for name, window in schedule.streams.items():
        if window.start.size < 2:
            continue
        order = np.argsort(window.start, kind="stable")
        start = window.start[order]
        end = window.end[order]
        overlap = start[1:] < end[:-1] - _TOL
        if overlap.any():
            i = int(np.argmax(overlap))
            yield ctx.diag(
                "MMB301",
                f"{int(overlap.sum())} overlapping window pair(s): kernel "
                f"starting at {start[i + 1]:.6g}s begins before the "
                f"previous one ends at {end[i]:.6g}s",
                f"stream {name!r} window[{i + 1}]",
                fix="a stream is a serial queue; two kernels cannot hold "
                    "the same partition at once",
            )


@rule("MMB302", "error", "schedule",
      "device oversubscription: stream shares sum past 1.0")
def share_sum(schedule, ctx: LintContext) -> Iterator[Diagnostic]:
    total = sum(w.share for w in schedule.streams.values())
    if total > 1.0 + _TOL:
        yield ctx.diag(
            "MMB302",
            f"stream shares sum to {total:.4g} on device "
            f"{schedule.device.name!r}; partitions cannot exceed the "
            f"whole device",
            f"device {schedule.device.name!r}",
            fix="shrink the shares (they are fractions of one device) or "
                "move streams to another device",
        )


@rule("MMB303", "warning", "schedule",
      "stream window extends past the schedule makespan")
def window_past_makespan(schedule, ctx: LintContext) -> Iterator[Diagnostic]:
    for name, window in schedule.streams.items():
        if window.n_kernels and window.busy_until > schedule.makespan + _TOL:
            yield ctx.diag(
                "MMB303",
                f"stream runs until {window.busy_until:.6g}s but the "
                f"schedule's makespan is {schedule.makespan:.6g}s",
                f"stream {name!r}",
                fix="the makespan is max over streams by construction; "
                    "recompute it after editing windows",
            )


# ---------------------------------------------------------------------------
# MMB3xx — serving timelines (replayed from a ServingReport)
# ---------------------------------------------------------------------------


def _dispatched(report):
    """(tenants, slots, replicas, dispatch) arrays for requests that
    actually ran, read off the report's request columns."""
    table = report.table
    ran = ~table.shed & (table.slot >= 0)
    if not ran.any():
        return None
    tenants = np.array(table.tenants)[table.tenant[ran]]
    slots = np.array(table.slots)[table.slot[ran]]
    return tenants, slots, table.replica[ran], table.dispatch[ran]


@rule("MMB304", "error", "serving",
      "cross-tenant batch leakage: one dispatched batch carries two tenants")
def tenant_leakage(report, ctx: LintContext) -> Iterator[Diagnostic]:
    """Batches form per tenant queue; every request sharing a (slot,
    replica, dispatch instant) batch must belong to the same tenant."""
    arrays = _dispatched(report)
    if arrays is None:
        return
    tenants, slots, replicas, dispatch = arrays
    # A batch is one (slot, replica, dispatch) triple; compare sorted neighbors.
    order = np.lexsort((tenants, dispatch, replicas, slots))
    slots, replicas = slots[order], replicas[order]
    dispatch, tenants = dispatch[order], tenants[order]
    same_batch = ((slots[1:] == slots[:-1]) & (replicas[1:] == replicas[:-1])
                  & (dispatch[1:] == dispatch[:-1]))
    leaked = same_batch & (tenants[1:] != tenants[:-1])
    if leaked.any():
        i = int(np.argmax(leaked))
        yield ctx.diag(
            "MMB304",
            f"{int(leaked.sum())} batch boundary violation(s): tenants "
            f"{str(tenants[i])!r} and {str(tenants[i + 1])!r} share the "
            f"batch dispatched at {dispatch[i]:.6g}s",
            f"slot {str(slots[i])!r}",
            fix="batches form per tenant queue; a shared batch mixes "
                "tenants' latency accounting and SLO attribution",
        )


@rule("MMB305", "error", "serving",
      "dispatch-to-down-slot race: request dispatched inside a fault window")
def down_slot_race(report, ctx: LintContext) -> Iterator[Diagnostic]:
    stats = getattr(report, "fault_stats", None)
    if stats is None or not stats.devices:
        return
    arrays = _dispatched(report)
    if arrays is None:
        return
    tenants, slots, _, dispatch = arrays
    for label, device_stats in stats.devices.items():
        if not device_stats.down_windows:
            continue
        on_slot = slots == label
        if not on_slot.any():
            continue
        times = dispatch[on_slot]
        raced = np.zeros(times.shape, dtype=bool)
        for start, end in device_stats.down_windows:
            raced |= (times > start) & (times < end)
        if raced.any():
            i = int(np.argmax(raced))
            yield ctx.diag(
                "MMB305",
                f"{int(raced.sum())} request(s) dispatched to a down slot "
                f"(first at {times[i]:.6g}s, tenant "
                f"{str(tenants[on_slot][i])!r})",
                f"slot {label!r}",
                fix="the event loop must fence dispatches against fault "
                    "windows; a down slot cannot accept work",
            )


# ---------------------------------------------------------------------------
# MMB4xx — fault plans (static, no slot expansion)
# ---------------------------------------------------------------------------


def _plan_timeline(plan):
    """Per-device ordered (time, kind, event) happenings of a plan."""
    from repro.serving.faults import (
        DeviceDown,
        DeviceRecover,
        ThermalThrottle,
        TransientStall,
    )

    kinds = {DeviceDown: "down", DeviceRecover: "recover",
             ThermalThrottle: "throttle", TransientStall: "stall"}
    by_device: dict[str, list[tuple[float, int, str, object]]] = {}
    for seq, event in enumerate(plan.events):
        by_device.setdefault(event.device, []).append(
            (event.time, seq, kinds[type(event)], event))
    for happenings in by_device.values():
        happenings.sort(key=lambda h: (h[0], h[1]))
    return by_device


@rule("MMB401", "error", "fault_plan",
      "unreachable recover: no preceding down on that device")
def unreachable_recover(plan, ctx: LintContext) -> Iterator[Diagnostic]:
    for device, happenings in _plan_timeline(plan).items():
        down = False
        for time, seq, kind, _ in happenings:
            if kind == "down":
                down = True
            elif kind == "recover":
                if not down:
                    yield ctx.diag(
                        "MMB401",
                        f"recover at {time:g}s has no preceding down for "
                        f"device {device!r}; the event can never fire",
                        f"event[{seq}]",
                        fix="drop the recover or add the down it undoes",
                    )
                down = False


@rule("MMB402", "warning", "fault_plan",
      "throttle/stall window starts at or past the run horizon")
def window_past_horizon(plan, ctx: LintContext) -> Iterator[Diagnostic]:
    from repro.serving.faults import ThermalThrottle, TransientStall

    if ctx.horizon is None:
        return
    for seq, event in enumerate(plan.events):
        if isinstance(event, (ThermalThrottle, TransientStall)) and \
                event.time >= ctx.horizon:
            yield ctx.diag(
                "MMB402",
                f"{'throttle' if isinstance(event, ThermalThrottle) else 'stall'} "
                f"on {event.device!r} starts at {event.time:g}s but the run "
                f"horizon is {ctx.horizon:g}s; it can never take effect",
                f"event[{seq}]",
                fix="move the window inside the horizon or drop it",
            )


def _down_intervals(happenings, horizon: float) -> list[tuple[float, float]]:
    intervals = []
    open_at = None
    for time, _, kind, _ in happenings:
        if kind == "down" and open_at is None:
            open_at = time
        elif kind == "recover" and open_at is not None:
            intervals.append((open_at, time))
            open_at = None
    if open_at is not None:
        intervals.append((open_at, horizon))
    return intervals


@rule("MMB403", "error", "fault_plan",
      "plan downs every device simultaneously (nothing can drain)")
def all_devices_down(plan, ctx: LintContext) -> Iterator[Diagnostic]:
    """Intersect the per-device down intervals across the whole pool. The
    pool is ``ctx.devices`` when the caller knows it; otherwise the
    devices the plan itself names — but since the plan cannot speak for
    devices it never mentions, the inferred-pool finding is demoted to a
    warning."""
    timeline = _plan_timeline(plan)
    pool = tuple(ctx.devices) if ctx.devices else tuple(timeline)
    severity = "error" if ctx.devices else "warning"
    if not pool:
        return
    horizon = ctx.horizon if ctx.horizon is not None else float("inf")
    lo, hi = 0.0, float("inf")
    for device in pool:
        intervals = _down_intervals(timeline.get(device, []), horizon)
        if not intervals:
            return  # this device is never down; someone can always drain
        # A device can have several down windows; for the simultaneous-
        # blackout check intersect against each, keeping any overlap.
        best = None
        for start, end in intervals:
            s, e = max(lo, start), min(hi, end)
            if s < e and (best is None or s < best[0]):
                best = (s, e)
        if best is None:
            return
        lo, hi = best
    yield ctx.diag(
        "MMB403",
        f"every device ({', '.join(pool)}) is down over "
        f"[{lo:g}s, {hi:g}s); the event loop could never drain",
        f"devices {', '.join(sorted(pool))}",
        fix="stagger the downs or recover one device before the next falls",
        severity=severity,
    )


@rule("MMB404", "warning", "fault_plan",
      "device goes down and never recovers (tenants pinned to it starve)")
def never_recovers(plan, ctx: LintContext) -> Iterator[Diagnostic]:
    for device, happenings in _plan_timeline(plan).items():
        down_at = None
        down_seq = None
        for time, seq, kind, _ in happenings:
            if kind == "down":
                down_at = time
                down_seq = seq
            elif kind == "recover":
                down_at = None
        if down_at is not None:
            yield ctx.diag(
                "MMB404",
                f"device {device!r} goes down at {down_at:g}s and never "
                f"recovers; tenants pinned to its slots starve from there",
                f"event[{down_seq}]",
                fix="add a recover event, or accept permanent degradation "
                    "knowingly",
            )


# ---------------------------------------------------------------------------
# MMB5xx — configs: tenant sets and op-mapping registries
# ---------------------------------------------------------------------------


@rule("MMB501", "error", "tenants",
      "duplicate tenant name (stats and routing key on the name)")
def duplicate_tenants(tenants: Sequence, ctx: LintContext) -> Iterator[Diagnostic]:
    seen: dict[str, int] = {}
    for index, spec in enumerate(tenants):
        name = getattr(spec, "name", str(spec))
        if name in seen:
            yield ctx.diag(
                "MMB501",
                f"tenant name {name!r} already used at index {seen[name]}; "
                f"per-tenant stats and routing key on the name",
                f"tenant[{index}] {name!r}",
                fix="give every tenant a unique name",
            )
        else:
            seen[name] = index


def _shadows(earlier: str, later: str) -> bool:
    """Does an earlier first-match-wins pattern make a later one dead?

    Token patterns (no underscore) match any ``_``-token prefix, so a
    later token pattern extending an earlier one can never fire.
    Substring patterns (with underscore) match canonical-name substrings,
    so a later pattern *containing* an earlier one can never fire.
    """
    if earlier == later:
        return True
    if "_" not in earlier and "_" not in later:
        return later.startswith(earlier)
    if "_" in earlier and "_" in later:
        return earlier in later
    return False


@rule("MMB510", "warning", "registry",
      "shadowed op-mapping rule: an earlier rule makes it unreachable")
def shadowed_rules(registry, ctx: LintContext) -> Iterator[Diagnostic]:
    rules = registry.rule_list
    for j, later in enumerate(rules):
        for i in range(j):
            earlier = rules[i]
            if _shadows(earlier.pattern, later.pattern):
                yield ctx.diag(
                    "MMB510",
                    f"rule {later.pattern!r} -> {later.category.value} can "
                    f"never match: rule[{i}] {earlier.pattern!r} -> "
                    f"{earlier.category.value} wins first on every name it "
                    f"would match",
                    f"rule[{j}] {later.pattern!r}",
                    fix="reorder the rules (more specific first) or drop "
                        "the dead one",
                )
                break


@rule("MMB511", "error", "registry",
      "empty op-mapping registry: every op lands in the unknown bucket")
def empty_registry(registry, ctx: LintContext) -> Iterator[Diagnostic]:
    if not registry.rule_list and not registry.exact_names:
        yield ctx.diag(
            "MMB511",
            "registry has no rules and no exact pins; every ingested op "
            "falls into the unknown bucket and prices on the fallback "
            "work model",
            "registry",
            fix="start from trace.ingest.default_registry() and override, "
                "rather than from an empty registry",
        )
