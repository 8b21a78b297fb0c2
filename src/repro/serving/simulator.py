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

Both are thin wrappers over the one serving engine,
:class:`repro.serving.fleet._FleetEngine`: each device slot becomes a
one-replica group keyed by its slot label (``2080ti#1``), so routing,
faults and per-slot statistics stay exactly per slot. The report keeps
every request's outcome as columns
(:class:`~repro.serving.request.RequestTable`) and builds
:class:`~repro.serving.request.Request` objects only when
``report.requests`` is first read.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.serving.costmodel import CallableCostModel
from repro.serving.faults import FaultPlan, FaultStats, RetryPolicy
from repro.serving.fleet import (DeviceGroup, TenantSpec, TenantStats,
                                 _FleetEngine, _tenant_stats)
from repro.serving.policies import BatchingPolicy
from repro.serving.request import (Request, RequestColumns, RequestTable,
                                   check_arrivals, closed_arrivals,
                                   poisson_arrivals)
from repro.serving.router import EarliestFinishRouter, Router

__all__ = [
    "DeviceStats",
    "ServingReport",
    "TenantSpec",
    "TenantStats",
    "simulate",
    "simulate_mixed",
    "slot_labels",
    "validate_fault_plan",
]


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
    # Every request's outcome as columns; ``requests`` builds the objects.
    table: RequestTable = field(repr=False, compare=False)
    tenant_stats: dict[str, TenantStats] = field(default_factory=dict)
    # Background fine-tuning jobs that shared the devices during the run
    # (see repro.serving.finetune); empty for pure-inference simulations.
    finetune_stats: dict = field(default_factory=dict)
    inference_slowdown: float = 1.0  # batch-latency multiplier the jobs imposed
    # What the fault plan did to the run (see repro.serving.faults);
    # None when the run had no fault injection at all.
    fault_stats: FaultStats | None = None

    @functools.cached_property
    def requests(self) -> list[Request]:
        """Every request as a :class:`Request`, in stream order, built
        from ``table`` on first read."""
        return self.table.to_requests()

    def slo_attainment(self, slo: float) -> float:
        """Fraction of issued requests whose end-to-end latency met ``slo``.

        Shed requests never complete and count as misses; an empty
        simulation misses nothing (attainment is vacuously 1).
        """
        table = self.table
        if not len(table):
            return 1.0
        met = ~table.shed & (table.finish - table.arrival <= slo)
        return int(np.count_nonzero(met)) / len(table)

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


def slot_labels(devices: tuple[str, ...]) -> list[str]:
    """Slot labels a device tuple expands to (``name#i`` for repeats).

    Chaos-scenario builders use this to target individual slots of a
    pool without running a simulation.
    """
    totals: dict[str, int] = {}
    for name in devices:
        totals[name] = totals.get(name, 0) + 1
    seen: dict[str, int] = {}
    labels = []
    for name in devices:
        i = seen[name] = seen.get(name, -1) + 1
        labels.append(name if totals[name] == 1 else f"{name}#{i}")
    return labels


def validate_fault_plan(plan: FaultPlan, devices: tuple[str, ...]) -> None:
    """Validate ``plan`` against a device pool without running anything.

    Raises :class:`~repro.serving.faults.FaultPlanError` exactly as the
    simulation entry points would — lets a CLI fail fast on a malformed
    plan before any profiling happens.
    """
    labels = slot_labels(devices)
    plan.resolve(labels, dict(zip(labels, devices)))


def _run_event_loop(
    tenants: Sequence[TenantSpec],
    devices: tuple[str, ...],
    columns: RequestColumns,
    index: np.ndarray | None,
    router: Router,
    faults: FaultPlan | None,
    retry: RetryPolicy | None,
    slowdown: float = 1.0,
) -> ServingReport:
    """Serve ``columns`` on ``devices``, one one-replica group per slot.

    ``index`` holds each request's caller-facing index (``None`` = its
    stream position). Returns the mixed report; its ``arrival_rate`` is
    left ``None`` for the caller to fill in.

    Latency statistics cover completed requests in stream order; shed
    requests (fault runs only) keep ``n_requests`` at the issued total and
    count in no timing column.
    """
    labels = slot_labels(devices)
    engine = _FleetEngine(tenants, [DeviceGroup(label, 1) for label in labels],
                          columns, None, faults, 0.0, router, retry,
                          index=index, devices=dict(zip(labels, devices)),
                          slowdown=slowdown)
    makespan = engine.run()
    table = engine.request_table()
    done = ~table.shed
    latencies = (table.finish - table.arrival)[done]
    queue = table.dispatch - table.arrival
    n_done = latencies.size
    if n_done:
        p50, p95, p99 = np.percentile(latencies, [50, 95, 99])
        summary = (float(latencies.mean()), float(queue[done].mean()),
                   float(table.formation[done].mean()),
                   float((table.finish - table.dispatch)[done].mean()))
    else:
        p50 = p95 = p99 = 0.0
        summary = (0.0, 0.0, 0.0, 0.0)
    # Each tenant's queue waits are a slice of the tenant-grouped column,
    # in the order of its completed latencies in ``engine.lat_t``.
    grouped = queue[engine.done_order]
    ends = np.cumsum([lat.size for lat in engine.lat_t]).tolist()
    mean_queue = [float(grouped[start:end].mean()) if end > start else 0.0
                  for start, end in zip([0, *ends], ends)]

    histograms = engine.batch_histograms()
    device_stats = {
        label: DeviceStats(
            slot=label,
            device=device,
            batches=engine.batches[g],
            requests=engine.requests[g],
            busy_time=engine.busy[g],
            utilization=engine.busy[g] / makespan if makespan > 0 else 0.0,
            mean_batch=(engine.requests[g] / engine.batches[g]
                        if engine.batches[g] else 0.0),
            batch_histogram=histograms[g],
        )
        for g, (label, device) in enumerate(zip(labels, devices))
    }
    return ServingReport(
        policy=f"mixed({len(tenants)} tenants)",
        router=router.name,
        n_requests=len(columns),
        arrival_rate=None,
        makespan=makespan,
        throughput=n_done / makespan if makespan > 0 else 0.0,
        mean_latency=summary[0],
        p50_latency=float(p50),
        p95_latency=float(p95),
        p99_latency=float(p99),
        mean_queue_time=summary[1],
        mean_formation_wait=summary[2],
        mean_service_time=summary[3],
        device_stats=device_stats,
        table=table,
        tenant_stats=_tenant_stats(tenants, engine.lat_t, mean_queue, makespan),
        fault_stats=engine.fault_stats(),
    )


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
    if arrival_rate is None:
        arrivals = closed_arrivals(n_requests)
    else:
        arrivals = poisson_arrivals(n_requests, arrival_rate, seed=seed)
    columns = RequestColumns(arrivals, np.zeros(arrivals.size, dtype=np.int64),
                             ("",))
    report = _run_event_loop([TenantSpec("", cost, policy)], tuple(devices),
                             columns, None, router or EarliestFinishRouter(),
                             faults, retry)
    return dataclasses.replace(report, policy=policy.name, tenant_stats={},
                               arrival_rate=arrival_rate)


def _request_columns(requests: Sequence[Request],
                     names: list[str]) -> tuple[RequestColumns, np.ndarray]:
    """A caller's tenant-tagged request list as arrival-sorted columns plus
    each request's own index (a stable sort keeps same-instant requests in
    list order)."""
    unknown = {r.tenant for r in requests} - set(names)
    if unknown:
        raise ValueError(f"requests reference unknown tenants {sorted(unknown)}")
    arrivals = check_arrivals([r.arrival for r in requests])
    code = {name: i for i, name in enumerate(names)}
    codes = np.fromiter((code[r.tenant] for r in requests), dtype=np.int64,
                        count=len(requests))
    index = np.fromiter((r.index for r in requests), dtype=np.int64,
                        count=len(requests))
    if arrivals.size and np.any(np.diff(arrivals) < 0):
        order = np.argsort(arrivals, kind="stable")
        arrivals, codes, index = arrivals[order], codes[order], index[order]
    return RequestColumns(arrivals, codes, tuple(names)), index


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
    fields; pass a tenant-tagged request list to replay a custom stream
    (its arrivals must be finite and non-negative numbers; the list is
    only read, so the same stream can be replayed across runs). The
    report carries per-tenant latency/SLO breakdowns in ``tenant_stats``.

    ``finetune`` adds background training jobs
    (:class:`~repro.serving.finetune.FinetuneJob`): each holds a stream
    share of every device, inference batches slow down by
    ``1 / (1 - sum(shares))``, and the report's ``finetune_stats`` records
    the training steps each job completed during the run's makespan.

    ``faults`` injects a declarative fault plan
    (:class:`~repro.serving.faults.FaultPlan`) — device failures abort
    in-flight batches (re-queued under ``retry``, shed past its bounds),
    throttle windows slow devices, stalls freeze them, and tenants with a
    declared ``degraded`` mode shed an encoder under pressure. The
    report's ``fault_stats`` accounts for all of it; background
    fine-tuning jobs additionally checkpoint/restart around each slot's
    down windows. An empty plan reproduces the fault-free schedule
    bit-identically.
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

    slowdown = 1.0
    if finetune:
        from repro.serving.finetune import inference_slowdown

        slowdown = inference_slowdown(finetune)

    index = None
    if requests is None:
        from repro.serving.scenarios import scenario_columns

        columns = scenario_columns(scenario, tenants, n_requests=n_requests,
                                   arrival_rate=arrival_rate, seed=seed)
    else:
        columns, index = _request_columns(requests, names)

    report = _run_event_loop(tenants, tuple(devices), columns, index,
                             router or EarliestFinishRouter(), faults, retry,
                             slowdown)
    finetune_stats = {}
    if finetune:
        from repro.serving.finetune import finetune_progress

        down_windows = None
        if report.fault_stats is not None:
            down_windows = {label: stats.down_windows
                            for label, stats in report.fault_stats.devices.items()
                            if stats.down_windows}
        finetune_stats = finetune_progress(
            finetune, {s.slot: s.device for s in report.device_stats.values()},
            report.makespan, down_windows=down_windows)
    return dataclasses.replace(report, arrival_rate=arrival_rate,
                               finetune_stats=finetune_stats,
                               inference_slowdown=slowdown)
