"""Golden diagnostics for the MMB3xx/4xx/5xx schedule, serving-timeline,
fault-plan and config rules — one hand-built bad artifact per rule code,
with code/severity/location pinned."""

from __future__ import annotations

import numpy as np

from repro.hw.device import get_device
from repro.hw.streams import StreamSchedule, StreamWindow
from repro.lint import (
    lint_fault_plan,
    lint_registry,
    lint_schedule,
    lint_serving_report,
    lint_tenants,
)
from repro.serving.faults import (
    DeviceDown,
    DeviceFaultStats,
    DeviceRecover,
    FaultPlan,
    FaultStats,
    ThermalThrottle,
)
from repro.serving.request import Request, RequestTable
from repro.serving.simulator import ServingReport, TenantSpec


def window(name, share, bounds):
    start = np.array([b[0] for b in bounds], dtype=np.float64)
    end = np.array([b[1] for b in bounds], dtype=np.float64)
    return StreamWindow(name=name, share=share, start=start, end=end)


def schedule(*windows, makespan=None):
    streams = {w.name: w for w in windows}
    if makespan is None:
        makespan = max((w.busy_until for w in windows), default=0.0)
    return StreamSchedule(device=get_device("2080ti"), streams=streams,
                          makespan=makespan)


def only(report, code):
    matching = [d for d in report.diagnostics if d.code == code]
    assert len(matching) == 1, \
        f"expected exactly one {code}, got {report.codes()}"
    return matching[0]


# -- MMB301: the stream race detector ---------------------------------------------


def test_mmb301_overlapping_windows_on_one_stream():
    bad = window("image", 0.5, [(0.0, 1.0), (0.5, 1.5)])  # second starts early
    diag = only(lint_schedule(schedule(bad)), "MMB301")
    assert diag.severity == "error"
    assert diag.location == "stream 'image' window[1]"
    assert "overlapping" in diag.message


def test_mmb301_back_to_back_windows_are_clean():
    good = window("image", 0.5, [(0.0, 1.0), (1.0, 1.5)])
    assert lint_schedule(schedule(good)).diagnostics == []


# -- MMB302: share oversubscription -------------------------------------------------


def test_mmb302_share_sum_over_one():
    report = lint_schedule(schedule(
        window("image", 0.7, [(0.0, 1.0)]),
        window("audio", 0.6, [(0.0, 1.0)]),
    ))
    diag = only(report, "MMB302")
    assert diag.severity == "error"
    assert diag.location == "device 'rtx2080ti'"
    assert "1.3" in diag.message


# -- MMB303: window past makespan -----------------------------------------------------


def test_mmb303_window_past_makespan():
    report = lint_schedule(schedule(
        window("image", 0.5, [(0.0, 2.0)]), makespan=1.0))
    diag = only(report, "MMB303")
    assert diag.severity == "warning"
    assert diag.location == "stream 'image'"


# -- serving-timeline replay helpers ----------------------------------------------------


def _request(index, tenant, slot, dispatch, shed=False):
    req = Request(index=index, arrival=dispatch - 0.01, tenant=tenant)
    req.dispatch = dispatch
    req.finish = dispatch + 0.02
    req.device = slot if not shed else ""
    req.shed = shed
    return req


def _report(requests, fault_stats=None):
    return ServingReport(
        policy="adaptive", router="earliest-finish",
        n_requests=len(requests), arrival_rate=None, makespan=1.0,
        throughput=0.0, mean_latency=0.0, p50_latency=0.0, p95_latency=0.0,
        p99_latency=0.0, mean_queue_time=0.0, mean_formation_wait=0.0,
        mean_service_time=0.0, device_stats={},
        table=RequestTable.from_requests(requests),
        fault_stats=fault_stats,
    )


# -- MMB304: cross-tenant batch leakage ---------------------------------------------------


def test_mmb304_two_tenants_in_one_batch():
    report = lint_serving_report(_report([
        _request(0, "avmnist", "2080ti#0", 0.10),
        _request(1, "mmimdb", "2080ti#0", 0.10),  # same slot, same instant
        _request(2, "mmimdb", "2080ti#0", 0.20),
    ]))
    diag = only(report, "MMB304")
    assert diag.severity == "error"
    assert diag.location == "slot '2080ti#0'"
    assert "avmnist" in diag.message and "mmimdb" in diag.message


def test_mmb304_same_instant_on_different_slots_is_clean():
    report = lint_serving_report(_report([
        _request(0, "avmnist", "2080ti#0", 0.10),
        _request(1, "mmimdb", "nano#0", 0.10),
    ]))
    assert report.diagnostics == []


# -- MMB305: dispatch-to-down-slot races ----------------------------------------------------


def _fault_stats(slot, down_windows):
    return FaultStats(
        plan_events=1, issued=0, completed=0, shed=0, retries=0,
        devices={slot: DeviceFaultStats(slot=slot, device=slot.split("#")[0],
                                        downtime=sum(e - s for s, e in down_windows),
                                        down_windows=list(down_windows))},
    )


def test_mmb305_dispatch_inside_down_window():
    stats = _fault_stats("nano#0", [(0.2, 0.5)])
    report = lint_serving_report(_report(
        [_request(0, "avmnist", "nano#0", 0.30)], fault_stats=stats))
    diag = only(report, "MMB305")
    assert diag.severity == "error"
    assert diag.location == "slot 'nano#0'"
    assert "1 request(s)" in diag.message


def test_mmb305_dispatch_at_recovery_boundary_is_clean():
    stats = _fault_stats("nano#0", [(0.2, 0.5)])
    report = lint_serving_report(_report(
        [_request(0, "avmnist", "nano#0", 0.5)], fault_stats=stats))
    assert report.diagnostics == []


# -- MMB401: unreachable recover ----------------------------------------------------------


def test_mmb401_recover_without_down():
    plan = FaultPlan(events=(DeviceRecover("nano", 0.5),))
    diag = only(lint_fault_plan(plan), "MMB401")
    assert diag.severity == "error"
    assert diag.location == "event[0]"
    assert "no preceding down" in diag.message


def test_mmb401_down_then_recover_is_clean():
    plan = FaultPlan(events=(DeviceDown("nano", 0.1),
                             DeviceRecover("nano", 0.5)))
    assert "MMB401" not in lint_fault_plan(plan).codes()


# -- MMB402: windows past the horizon --------------------------------------------------------


def test_mmb402_throttle_past_horizon():
    plan = FaultPlan(events=(ThermalThrottle("orin", 5.0, 6.0, 2.0),))
    report = lint_fault_plan(plan, horizon=1.0)
    diag = only(report, "MMB402")
    assert diag.severity == "warning"
    assert diag.location == "event[0]"
    assert "never take effect" in diag.message


def test_mmb402_needs_a_horizon():
    plan = FaultPlan(events=(ThermalThrottle("orin", 5.0, 6.0, 2.0),))
    assert "MMB402" not in lint_fault_plan(plan).codes()


# -- MMB403: whole-pool blackout ---------------------------------------------------------------


def test_mmb403_all_devices_down_simultaneously():
    plan = FaultPlan(events=(DeviceDown("2080ti", 0.1),
                             DeviceDown("nano", 0.2),
                             DeviceRecover("2080ti", 0.6),
                             DeviceRecover("nano", 0.7)))
    report = lint_fault_plan(plan, devices=("2080ti", "nano"))
    diag = only(report, "MMB403")
    assert diag.severity == "error"
    assert "0.2" in diag.message and "0.6" in diag.message


def test_mmb403_staggered_downs_are_clean():
    plan = FaultPlan(events=(DeviceDown("2080ti", 0.1),
                             DeviceRecover("2080ti", 0.2),
                             DeviceDown("nano", 0.3),
                             DeviceRecover("nano", 0.4)))
    report = lint_fault_plan(plan, devices=("2080ti", "nano"))
    assert "MMB403" not in report.codes()


def test_mmb403_inferred_pool_demotes_to_warning():
    # Without the real pool the plan can only speak for devices it names;
    # downing all of *those* is a warning, not an error.
    plan = FaultPlan(events=(DeviceDown("nano", 0.1),))
    diag = only(lint_fault_plan(plan), "MMB403")
    assert diag.severity == "warning"


# -- MMB404: device never recovers ----------------------------------------------------------------


def test_mmb404_down_without_recover():
    plan = FaultPlan(events=(DeviceDown("nano", 0.1),
                             DeviceRecover("nano", 0.2),
                             DeviceDown("nano", 0.5)))
    report = lint_fault_plan(plan, devices=("nano", "orin"))
    diag = only(report, "MMB404")
    assert diag.severity == "warning"
    assert diag.location == "event[2]"
    assert "never recovers" in diag.message


# -- MMB501: duplicate tenant names ------------------------------------------------------------------


def _tenant(name):
    from repro.serving.policies import FixedBatchPolicy

    return TenantSpec(name=name, cost=lambda k: 0.001 * k,
                      policy=FixedBatchPolicy(4))


def test_mmb501_duplicate_tenant_names():
    report = lint_tenants([_tenant("avmnist"), _tenant("avmnist")])
    diag = only(report, "MMB501")
    assert diag.severity == "error"
    assert diag.location == "tenant[1] 'avmnist'"


def test_mmb501_unique_names_are_clean():
    report = lint_tenants([_tenant("avmnist"), _tenant("mmimdb")])
    assert report.diagnostics == []


# -- MMB510 / MMB511: op-mapping registries ------------------------------------------------------------


def test_mmb510_shadowed_token_rule():
    from repro.trace.ingest import OpMappingRegistry

    registry = OpMappingRegistry(rules=())
    registry.register("conv2d", "conv")  # registered second, checked first
    registry.register("conv", "conv")  # prepends: now shadows conv2d
    diag = only(lint_registry(registry), "MMB510")
    assert diag.severity == "warning"
    assert diag.location == "rule[1] 'conv2d'"
    assert "never match" in diag.message


def test_mmb510_default_registry_is_clean():
    from repro.trace.ingest import default_registry

    assert lint_registry(default_registry()).diagnostics == []


def test_mmb511_empty_registry():
    from repro.trace.ingest import OpMappingRegistry

    diag = only(lint_registry(OpMappingRegistry(rules=())), "MMB511")
    assert diag.severity == "error"
    assert diag.location == "registry"


# -- clean end-to-end artifacts stay clean ----------------------------------------------------------------


def test_simulated_schedule_lints_clean(tmp_path):
    from repro.hw.streams import StreamScheduler
    from repro.trace.store import TraceStore

    store = TraceStore(tmp_path)
    stored = store.get_or_capture("avmnist", batch_size=8, backend="meta")
    sched = StreamScheduler("2080ti").schedule_trace(stored.trace)
    assert lint_schedule(sched).diagnostics == []


def test_chaos_serving_report_lints_clean():
    from repro.serving import RetryPolicy, chaos_plan, make_tenants, simulate_mixed

    devices = ("2080ti", "nano")
    tenants = make_tenants(("avmnist", "mmimdb"), slo=50e-3, seed=0,
                           backend="meta")
    report = simulate_mixed(
        tenants, devices=devices, n_requests=400, arrival_rate=1000.0,
        scenario="uniform", seed=0,
        faults=chaos_plan("single-failure", devices, 0.4, seed=0),
        retry=RetryPolicy())
    lint = lint_serving_report(report)
    assert lint.diagnostics == [], [d.render() for d in lint.diagnostics]
