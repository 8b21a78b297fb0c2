"""Fault injection and graceful degradation for the serving simulator.

The paper warns (Sec. 4.2.3) that naively throttling encoders "can lead
to avoidable task failures resulting from the loss of situation
awareness"; :mod:`repro.core.analysis.robustness` reproduces that axis at
the *algorithm* level (modality dropout / noise). This module is the
*system*-level counterpart: simulated devices can die mid-run, overheat
into throttle windows, or stall transiently — and the serving stack must
degrade gracefully instead of losing requests.

A :class:`FaultPlan` is a declarative, seeded timeline of events. An
event names a device slot (``2080ti#1``), a bare device model (every
slot of it) or, for :func:`~repro.serving.fleet.simulate_fleet`, a
device group (every replica of it):

* :class:`DeviceDown` / :class:`DeviceRecover` — a slot leaves /
  rejoins the pool. In-flight batches on a failing slot are **aborted**
  and their requests re-queued with retry accounting (bounded retries,
  exponential backoff with deterministic jitter).
* :class:`ThermalThrottle` — a time-windowed latency multiplier on one
  slot or group (batches dispatched inside the window run ``factor``
  slower, and batching/routing decisions see the throttled curves).
* :class:`TransientStall` — the slot freezes for ``duration`` seconds:
  an in-flight batch finishes late, an idle slot accepts no work.

The serving engine (:class:`repro.serving.fleet._FleetEngine`) applies
the plan; :class:`FaultRuntime` holds its bookkeeping.

Requests are never silently lost: a request either completes or is
**shed** (bounded retries exhausted, or its deadline expired), and the
event loop enforces ``completed + shed + in_flight == issued`` at every
step. Tenants may also declare a :class:`DegradedMode`: under sustained
pressure (oldest queued request waiting past ``enter_wait``) the tenant
drops to a cheaper serving configuration — modelled as shedding its
costliest modality encoder, the ``scale_trace``-style trace reduction —
with the accuracy cost quoted from the algorithm-level
:class:`~repro.core.analysis.robustness.RobustnessReport`.

Everything the faults did to the run is reported in
:class:`FaultStats` (``ServingReport.fault_stats``): per-device downtime
and throttle/stall windows, abort/retry/shed counts, degraded-mode
request counts and SLO attainment, and recovery-time percentiles.

Named chaos scenarios (``single-failure``, ``rolling-restart``,
``thermal-brownout``, ``flaky-device``) build ready-made plans for a
device pool and run horizon; ``mmbench serve --faults`` accepts either a
scenario name or a plan JSON file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Mapping, Sequence

import numpy as np

from repro.serving.request import is_finite_number


class FaultPlanError(ValueError):
    """A fault plan is malformed: unknown device, overlapping windows,
    a plan that kills every device at once, or a bad field value. The
    message always names the offender."""


# ---------------------------------------------------------------------------
# Declarative fault events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeviceDown:
    """Slot ``device`` fails at ``time``; in-flight work is aborted."""

    device: str
    time: float


@dataclass(frozen=True)
class DeviceRecover:
    """Slot ``device`` rejoins the pool at ``time``."""

    device: str
    time: float


@dataclass(frozen=True)
class ThermalThrottle:
    """Latencies on ``device`` multiply by ``factor`` over ``[time, until)``."""

    device: str
    time: float
    until: float
    factor: float


@dataclass(frozen=True)
class TransientStall:
    """Slot ``device`` freezes for ``duration`` seconds starting at ``time``."""

    device: str
    time: float
    duration: float


FaultEvent = DeviceDown | DeviceRecover | ThermalThrottle | TransientStall

_KINDS = {
    "down": DeviceDown,
    "recover": DeviceRecover,
    "throttle": ThermalThrottle,
    "stall": TransientStall,
}


def _check_event(event: FaultEvent, where: str) -> None:
    if not isinstance(event, (DeviceDown, DeviceRecover, ThermalThrottle,
                              TransientStall)):
        raise FaultPlanError(f"{where}: not a fault event: {event!r}")
    if not isinstance(event.device, str):
        raise FaultPlanError(f"{where}: device must be a string, "
                             f"got {event.device!r}")
    if not event.device:
        raise FaultPlanError(f"{where}: empty device name")
    for f in fields(event):
        value = getattr(event, f.name)
        if f.name != "device" and not is_finite_number(value):
            raise FaultPlanError(f"{where}: {f.name} must be a finite number, "
                                 f"got {value!r} for {event.device!r}")
    if event.time < 0:
        raise FaultPlanError(f"{where}: negative time {event.time} "
                             f"for device {event.device!r}")
    if isinstance(event, ThermalThrottle):
        if event.factor <= 0:
            raise FaultPlanError(f"{where}: throttle factor must be positive, "
                                 f"got {event.factor} for {event.device!r}")
        if event.until <= event.time:
            raise FaultPlanError(f"{where}: throttle window must end after it "
                                 f"starts ({event.time} .. {event.until}) "
                                 f"for {event.device!r}")
    if isinstance(event, TransientStall) and event.duration <= 0:
        raise FaultPlanError(f"{where}: stall duration must be positive, "
                             f"got {event.duration} for {event.device!r}")


@dataclass(frozen=True)
class FaultPlan:
    """A declarative timeline of fault events against a device pool.

    Events name either a *slot* label (``2080ti#1``) or a bare device
    model name, which expands to every slot of that model at
    :meth:`resolve` time. An empty plan is a valid plan — and runs
    bit-identically to no plan at all (a tier-1-enforced invariant).
    """

    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self):
        events = tuple(self.events)
        object.__setattr__(self, "events", events)
        for i, event in enumerate(events):
            _check_event(event, f"event[{i}]")

    @property
    def empty(self) -> bool:
        return not self.events

    # -- resolution & validation ------------------------------------------------

    def resolve(self, slot_labels: Sequence[str],
                slot_device: Mapping[str, str]) -> list[tuple]:
        """Expand device names to slots and validate the whole timeline.

        Returns ``(time, seq, kind, slot, arg)`` happenings sorted by
        time (stable in plan order): throttles become on/off pairs,
        stalls carry their duration. Raises :class:`FaultPlanError` for
        an unknown device, a down window overlapping another down window
        on the same slot, a recover with no matching down, or any
        instant at which *every* slot is simultaneously down (the event
        loop could never drain).
        """
        labels = list(slot_labels)
        by_device: dict[str, list[str]] = {}
        for label in labels:
            by_device.setdefault(slot_device.get(label, label), []).append(label)

        def slots_for(name: str, where: str) -> list[str]:
            if name in labels:
                return [name]
            if name in by_device:
                return by_device[name]
            raise FaultPlanError(
                f"{where}: unknown device {name!r}; "
                f"available slots: {', '.join(labels)}")

        happenings: list[tuple] = []
        seq = 0
        for i, event in enumerate(self.events):
            where = f"event[{i}]"
            for slot in slots_for(event.device, where):
                if isinstance(event, DeviceDown):
                    happenings.append((event.time, seq, "down", slot, None))
                elif isinstance(event, DeviceRecover):
                    happenings.append((event.time, seq, "recover", slot, None))
                elif isinstance(event, ThermalThrottle):
                    happenings.append(
                        (event.time, seq, "throttle-on", slot, event.factor))
                    happenings.append(
                        (event.until, seq, "throttle-off", slot, event.factor))
                else:  # TransientStall
                    happenings.append(
                        (event.time, seq, "stall", slot, event.duration))
                seq += 1
        happenings.sort(key=lambda h: (h[0], h[1]))

        down: set[str] = set()
        for when, _, kind, slot, _arg in happenings:
            if kind == "down":
                if slot in down:
                    raise FaultPlanError(
                        f"overlapping down windows for {slot!r} at t={when:g}")
                down.add(slot)
                if len(down) == len(labels):
                    raise FaultPlanError(
                        f"plan kills all {len(labels)} devices at t={when:g}; "
                        "at least one slot must stay up")
            elif kind == "recover":
                if slot not in down:
                    raise FaultPlanError(
                        f"recover without a matching down for {slot!r} "
                        f"at t={when:g}")
                down.discard(slot)
        return happenings

    # -- (de)serialization -------------------------------------------------------

    def to_json(self) -> dict:
        events = []
        for event in self.events:
            if isinstance(event, DeviceDown):
                events.append({"kind": "down", "device": event.device,
                               "time": event.time})
            elif isinstance(event, DeviceRecover):
                events.append({"kind": "recover", "device": event.device,
                               "time": event.time})
            elif isinstance(event, ThermalThrottle):
                events.append({"kind": "throttle", "device": event.device,
                               "time": event.time, "until": event.until,
                               "factor": event.factor})
            else:
                events.append({"kind": "stall", "device": event.device,
                               "time": event.time,
                               "duration": event.duration})
        return {"events": events}

    @classmethod
    def from_json(cls, payload: dict) -> "FaultPlan":
        if not isinstance(payload, dict) or "events" not in payload:
            raise FaultPlanError('fault plan JSON must be {"events": [...]}')
        if not isinstance(payload["events"], list):
            raise FaultPlanError(f"events: not a list: {payload['events']!r}")
        events: list[FaultEvent] = []
        for i, raw in enumerate(payload["events"]):
            where = f"event[{i}]"
            if not isinstance(raw, dict):
                raise FaultPlanError(f"{where}: not an object: {raw!r}")
            kind = raw.get("kind")
            if not isinstance(kind, str) or kind not in _KINDS:
                raise FaultPlanError(
                    f"{where}: unknown kind {kind!r}; "
                    f"available: {', '.join(sorted(_KINDS))}")
            fields = {k: v for k, v in raw.items() if k != "kind"}
            try:
                event = _KINDS[kind](**fields)
            except TypeError as exc:
                raise FaultPlanError(f"{where}: {exc}") from None
            _check_event(event, where)
            events.append(event)
        return cls(tuple(events))


def load_fault_plan(path) -> FaultPlan:
    """Read a :class:`FaultPlan` from a JSON file (see :meth:`FaultPlan.to_json`)."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or digits
        raise FaultPlanError(f"cannot read fault plan {path!r}: {exc}") from None
    return FaultPlan.from_json(payload)


# ---------------------------------------------------------------------------
# Retry / shed policy
# ---------------------------------------------------------------------------


def _jitter_fraction(index: int, attempt: int) -> float:
    """Deterministic pseudo-uniform fraction in [0, 1) per (request, attempt)."""
    h = (index * 2654435761 + attempt * 40503 + 0x9E3779B9) & 0xFFFFFFFF
    h ^= h >> 16
    h = (h * 0x45D9F3B) & 0xFFFFFFFF
    h ^= h >> 16
    return h / 2.0 ** 32


@dataclass(frozen=True)
class RetryPolicy:
    """How aborted requests are retried — and when they are shed instead.

    A request aborted by a device failure is re-queued after an
    exponential backoff ``backoff_base * backoff_factor**(attempt-1)``
    with deterministic jitter (a hash of the request index and attempt —
    no RNG state, so reruns are bit-identical). A request is **shed**
    once it exceeds ``max_retries`` aborts, or once it has been in the
    system longer than ``deadline`` seconds (``None`` = no deadline).
    Shed requests are counted, never silently dropped.
    """

    max_retries: int = 3
    backoff_base: float = 2e-3
    backoff_factor: float = 2.0
    jitter: float = 0.1
    deadline: float | None = None

    def __post_init__(self):
        for name in ("max_retries", "backoff_base", "backoff_factor", "jitter"):
            value = getattr(self, name)
            if not is_finite_number(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base <= 0:
            raise ValueError(
                f"backoff_base must be positive, got {self.backoff_base}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.deadline is not None and (not is_finite_number(self.deadline)
                                          or self.deadline <= 0):
            raise ValueError(f"deadline must be positive and finite, "
                             f"got {self.deadline!r}")

    def backoff(self, index: int, attempt: int) -> float:
        """Seconds to wait before re-queueing ``attempt``-th retry."""
        base = self.backoff_base * self.backoff_factor ** (attempt - 1)
        return base * (1.0 + self.jitter * _jitter_fraction(index, attempt))


# ---------------------------------------------------------------------------
# Graceful degradation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegradedMode:
    """A tenant's pressure-relief valve: serve cheaper, admit the cost.

    When the tenant's oldest queued request has waited ``enter_wait``
    seconds the tenant switches to degraded serving — its batches run at
    ``latency_factor`` of normal cost, modelling the shed ``modality``
    encoder (a ``scale_trace``-style trace reduction) — and switches
    back once the oldest wait drops below ``exit_wait`` (hysteresis).
    ``accuracy_cost`` quotes what the shed encoder costs in task metric,
    straight from :meth:`RobustnessReport.degradation
    <repro.core.analysis.robustness.RobustnessReport.degradation>` —
    the paper's "loss of situation awareness" made a number.
    """

    modality: str
    latency_factor: float
    enter_wait: float
    exit_wait: float | None = None
    accuracy_cost: float | None = None

    def __post_init__(self):
        if not 0.0 < self.latency_factor <= 1.0:
            raise ValueError(
                f"latency_factor must be in (0, 1], got {self.latency_factor}")
        if self.enter_wait <= 0:
            raise ValueError(
                f"enter_wait must be positive, got {self.enter_wait}")
        if self.exit_wait is None:
            object.__setattr__(self, "exit_wait", self.enter_wait / 2.0)
        if not 0.0 <= self.exit_wait < self.enter_wait:
            raise ValueError(
                f"exit_wait must be in [0, enter_wait), got {self.exit_wait}")


def degraded_mode_for(
    workload: str,
    enter_wait: float,
    exit_wait: float | None = None,
    modality: str | None = None,
    device: str = "2080ti",
    batch_size: int = 32,
    seed: int = 0,
    backend: str = "meta",
    robustness=None,
) -> DegradedMode:
    """Build a :class:`DegradedMode` from a workload's priced trace.

    The shed encoder defaults to the workload's *costliest* modality (by
    priced per-modality time share on ``device``); the latency factor is
    the trace with that modality's kernels removed, i.e.
    ``1 - modality_time / total_time``. Pass a
    :class:`~repro.core.analysis.robustness.RobustnessReport` as
    ``robustness`` to quote the accuracy cost of the drop.
    """
    from repro.profiling.profiler import price_grid
    from repro.workloads.registry import get_workload

    info = get_workload(workload)
    if len(info.modalities) < 2:
        raise ValueError(
            f"{workload!r} has a single modality ({info.modalities[0]!r}); "
            "shedding its only encoder would serve nothing")
    [cell] = price_grid([workload], [batch_size], [device], seed=seed,
                        backend=backend).values()
    times = cell.report.modality_time()
    if modality is None:
        modality = max(times, key=times.get)
    elif modality not in info.modalities:
        raise KeyError(f"unknown modality {modality!r} for {workload}; "
                       f"available: {list(info.modalities)}")
    total = cell.report.total_time
    share = times.get(modality, 0.0) / total if total > 0 else 0.0
    factor = min(1.0, max(0.05, 1.0 - share))
    cost = robustness.degradation(modality) if robustness is not None else None
    return DegradedMode(modality=modality, latency_factor=factor,
                        enter_wait=enter_wait, exit_wait=exit_wait,
                        accuracy_cost=cost)


# ---------------------------------------------------------------------------
# Fault statistics (surfaced on ServingReport.fault_stats)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeviceFaultStats:
    """What the faults did to one device slot."""

    slot: str
    device: str
    downtime: float
    down_windows: list[tuple[float, float]] = field(default_factory=list)
    throttle_time: float = 0.0
    throttle_windows: list[tuple[float, float, float]] = field(default_factory=list)
    stall_time: float = 0.0
    aborted_batches: int = 0
    aborted_requests: int = 0


@dataclass(frozen=True)
class TenantFaultStats:
    """Shedding / degradation accounting for one tenant."""

    tenant: str
    shed: int = 0
    degraded_available: bool = False  # tenant declared a DegradedMode
    degraded_requests: int = 0
    degraded_slo_attainment: float | None = None
    degraded_time: float = 0.0
    degraded_activations: int = 0
    accuracy_cost: float | None = None  # quoted metric cost of degraded mode


@dataclass(frozen=True)
class FaultStats:
    """Everything a fault plan did to one serving run."""

    plan_events: int
    issued: int
    completed: int
    shed: int
    retries: int  # total abort-retry transitions
    retry_histogram: dict[int, int] = field(default_factory=dict)
    recovery_p50: float = 0.0  # abort -> eventual completion, seconds
    recovery_p99: float = 0.0
    devices: dict[str, DeviceFaultStats] = field(default_factory=dict)
    tenants: dict[str, TenantFaultStats] = field(default_factory=dict)

    @property
    def total_downtime(self) -> float:
        return sum(d.downtime for d in self.devices.values())


# ---------------------------------------------------------------------------
# Runtime: the fault bookkeeping the serving engine drives
# ---------------------------------------------------------------------------


class FaultRuntime:
    """The fault bookkeeping of one run: a plan, a retry policy, and what
    they did.

    The serving engine (:class:`repro.serving.fleet._FleetEngine`) owns
    one per run and drives it: it applies the resolved ``happenings``,
    aborts, retries and sheds requests, and writes into the accounting
    below. The conservation counters satisfy ``issued == completed +
    shed + queued + on_device + awaiting_retry`` at every step
    (:meth:`check_conservation`); :meth:`build_stats` collapses the rest
    into a :class:`FaultStats`.
    """

    def __init__(self, plan: FaultPlan, retry: RetryPolicy,
                 slot_labels: Sequence[str], slot_device: Mapping[str, str]):
        self.plan = plan
        self.retry = retry
        self.happenings = plan.resolve(slot_labels, slot_device)
        self._slot_device = dict(slot_device)
        self.active_throttles: dict[str, list[float]] = {}
        # Conservation counters.
        self.queued = 0
        self.on_device = 0
        self.awaiting_retry = 0
        self.completed = 0
        self.shed = 0
        self.retries = 0
        # Per-label accounting.
        self.down_since: dict[str, float] = {}
        self.down_windows: dict[str, list[tuple[float, float]]] = {}
        self.stall_time: dict[str, float] = {}
        self.aborted_batches: dict[str, int] = {}
        self.aborted_requests: dict[str, int] = {}
        # Per-tenant accounting.
        self.tenant_shed: dict[str, int] = {}
        self.degraded_requests: dict[str, int] = {}
        self.degraded_since: dict[str, float] = {}
        self.degraded_time: dict[str, float] = {}
        self.degraded_activations: dict[str, int] = {}
        # Abort -> eventual completion, seconds, per recovered request.
        self.recovery_samples: list[float] = []

    def check_conservation(self, issued: int) -> None:
        accounted = (self.completed + self.shed + self.queued
                     + self.on_device + self.awaiting_retry)
        if accounted != issued:
            raise RuntimeError(
                f"request conservation violated: issued={issued} but "
                f"completed={self.completed} + shed={self.shed} + "
                f"queued={self.queued} + on_device={self.on_device} + "
                f"awaiting_retry={self.awaiting_retry} = {accounted}")

    def build_stats(self, makespan: float, issued: int, tenants,
                    retry_histogram: dict[int, int],
                    degraded_latencies: Mapping[str, np.ndarray]) -> FaultStats:
        """Collapse the run's fault bookkeeping into a :class:`FaultStats`.

        ``tenants`` maps tenant name to its :class:`DegradedMode` (or
        ``None``) and SLO, as ``(mode, slo)`` pairs; ``retry_histogram``
        counts requests by abort count, and ``degraded_latencies`` holds
        each tenant's completed degraded-mode latencies.
        """
        # Close windows still open at drain time.
        down_windows = {k: list(v) for k, v in self.down_windows.items()}
        for label, since in self.down_since.items():
            down_windows.setdefault(label, []).append((since, makespan))
        for name, since in self.degraded_since.items():
            self.degraded_time[name] = (
                self.degraded_time.get(name, 0.0) + (makespan - since))
        self.degraded_since.clear()

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
                  | set(self.stall_time) | set(self.aborted_batches))
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
                stall_time=self.stall_time.get(label, 0.0),
                aborted_batches=self.aborted_batches.get(label, 0),
                aborted_requests=self.aborted_requests.get(label, 0),
            )

        tenant_stats: dict[str, TenantFaultStats] = {}
        names = (set(tenants) | set(self.tenant_shed)
                 | set(self.degraded_requests))
        for name in sorted(names):
            mode, slo = tenants.get(name, (None, None))
            attainment = None
            degraded = degraded_latencies.get(name)
            if slo is not None and degraded is not None and degraded.size:
                attainment = float(np.mean(degraded <= slo))
            tenant_stats[name] = TenantFaultStats(
                tenant=name,
                shed=self.tenant_shed.get(name, 0),
                degraded_available=mode is not None,
                degraded_requests=self.degraded_requests.get(name, 0),
                degraded_slo_attainment=attainment,
                degraded_time=self.degraded_time.get(name, 0.0),
                degraded_activations=self.degraded_activations.get(name, 0),
                accuracy_cost=mode.accuracy_cost if mode is not None else None,
            )

        p50, p99 = (np.percentile(self.recovery_samples, [50, 99]).tolist()
                    if self.recovery_samples else (0.0, 0.0))
        return FaultStats(
            plan_events=len(self.plan.events),
            issued=issued,
            completed=issued - self.shed,
            shed=self.shed,
            retries=self.retries,
            retry_histogram=retry_histogram,
            recovery_p50=p50,
            recovery_p99=p99,
            devices=devices,
            tenants=tenant_stats,
        )


# ---------------------------------------------------------------------------
# Named chaos scenarios
# ---------------------------------------------------------------------------


def _single_failure(slots, horizon, rng) -> FaultPlan:
    """The fastest device dies a quarter into the run, recovers at 60%."""
    slot = slots[0]
    return FaultPlan((
        DeviceDown(slot, 0.25 * horizon),
        DeviceRecover(slot, 0.60 * horizon),
    ))


def _rolling_restart(slots, horizon, rng) -> FaultPlan:
    """Every slot restarts once, staggered so the pool never fully drains."""
    width = 0.5 * horizon / max(1, len(slots))
    events: list[FaultEvent] = []
    for i, slot in enumerate(slots):
        start = 0.2 * horizon + i * width * 1.1
        events.append(DeviceDown(slot, start))
        events.append(DeviceRecover(slot, start + width))
    return FaultPlan(tuple(events))


def _thermal_brownout(slots, horizon, rng) -> FaultPlan:
    """Every device throttles 2.5x through the middle of the run."""
    return FaultPlan(tuple(
        ThermalThrottle(slot, 0.30 * horizon, 0.75 * horizon, 2.5)
        for slot in slots
    ))


def _flaky_device(slots, horizon, rng) -> FaultPlan:
    """The last slot flaps down/up eight times with jittered stalls between."""
    slot = slots[-1]
    events: list[FaultEvent] = []
    period = horizon / 10.0
    for i in range(8):
        start = (0.5 + i) * period * (1.0 + 0.05 * float(rng.random()))
        events.append(DeviceDown(slot, start))
        events.append(DeviceRecover(slot, start + 0.3 * period))
        events.append(TransientStall(slot, start + 0.45 * period,
                                     0.05 * period))
    return FaultPlan(tuple(events))


CHAOS_SCENARIOS = {
    "single-failure": _single_failure,
    "rolling-restart": _rolling_restart,
    "thermal-brownout": _thermal_brownout,
    "flaky-device": _flaky_device,
}

CHAOS_SCENARIO_NAMES: tuple[str, ...] = tuple(CHAOS_SCENARIOS)


def chaos_plan(name: str, devices: Sequence[str], horizon: float,
               seed: int = 0) -> FaultPlan:
    """Build a named chaos scenario's :class:`FaultPlan` for a device pool.

    ``devices`` are the device names exactly as passed to
    :func:`~repro.serving.simulator.simulate` (repeats expand to slots);
    ``horizon`` is the expected run length in seconds (for an open-loop
    run, ``n_requests / arrival_rate``). Deterministic in ``seed``.
    """
    if name not in CHAOS_SCENARIOS:
        raise FaultPlanError(
            f"unknown chaos scenario {name!r}; "
            f"available: {', '.join(CHAOS_SCENARIO_NAMES)}")
    if horizon <= 0:
        raise FaultPlanError(f"chaos horizon must be positive, got {horizon}")
    from repro.serving.simulator import slot_labels

    slots = slot_labels(tuple(devices))
    if not slots:
        raise FaultPlanError("chaos scenario needs at least one device")
    rng = np.random.default_rng(seed)
    return CHAOS_SCENARIOS[name](slots, horizon, rng)
