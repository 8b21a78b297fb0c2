"""Serve results as columns: ``ServingReport.table`` and its readers.

A serve run keeps every request's outcome as a
:class:`~repro.serving.request.RequestTable`; ``report.requests`` builds
the :class:`~repro.serving.request.Request` objects on first read.
Attainment and the timeline lint rules read the columns, so a run that
never asks for the objects builds none, and the column readers must agree
with the per-object definitions they replaced.
"""

import numpy as np
import pytest

import repro.serving.fleet as fleet
import repro.serving.request as request_mod
import repro.serving.simulator as simulator
from repro.lint import lint_serving_report
from repro.serving import (
    FixedBatchPolicy,
    RetryPolicy,
    TenantSpec,
    chaos_plan,
    format_fault_stats,
    format_tenant_breakdown,
    mixed_serving_summary,
    simulate,
    simulate_fleet,
    simulate_mixed,
)
from repro.serving.faults import DeviceFaultStats, FaultStats
from repro.serving.request import Request, RequestTable

DEVICES = ("a", "a", "b")
N = 600
RATE = 30_000.0


def affine(k: int) -> float:
    return 1e-3 + 1e-4 * k


def slow(k: int) -> float:
    return 2e-3 + 3e-4 * k


def shedding_run():
    """Single-failure plus a tight deadline: requests retry and shed."""
    tenants = [TenantSpec("x", affine, FixedBatchPolicy(8), slo=20e-3, weight=2.0),
               TenantSpec("y", slow, FixedBatchPolicy(8), slo=30e-3)]
    plan = chaos_plan("single-failure", DEVICES, N / RATE, seed=1)
    return simulate_mixed(tenants, devices=DEVICES, n_requests=N,
                          arrival_rate=RATE, faults=plan,
                          retry=RetryPolicy(deadline=8e-3), seed=2, lint=False)


def per_object_attainment(requests: list[Request], slo: float) -> float:
    """The definition ``slo_attainment`` had over ``Request`` objects."""
    if not requests:
        return 1.0
    met = sum(1 for r in requests if not r.shed and r.latency <= slo)
    return met / len(requests)


def test_run_builds_no_request_objects_until_read(monkeypatch):
    built = []

    def counting(*args, **kwargs):
        built.append(None)
        return Request(*args, **kwargs)

    # Both the name the simulator resolves and the one the table
    # materializes through.
    monkeypatch.setattr(simulator, "Request", counting, raising=False)
    monkeypatch.setattr(request_mod, "Request", counting)
    report = shedding_run()
    assert report.fault_stats.shed > 0
    # What ``mmbench serve`` and the lint hook read.
    report.slo_attainment(0.05)
    mixed_serving_summary(report)
    format_tenant_breakdown(report)
    format_fault_stats(report)
    lint_serving_report(report)
    assert built == []
    requests = report.requests
    assert len(requests) == report.n_requests == len(built)
    assert report.requests is requests  # built once per report


def test_fault_free_fleet_run_builds_no_table(monkeypatch):
    """A fleet report has no per-request columns, so a run without faults
    (whose latencies need none) never assembles them."""
    def refuse(self):
        raise AssertionError("request table built")

    monkeypatch.setattr(fleet._FleetEngine, "request_table", refuse)
    report = simulate_fleet([TenantSpec("x", affine, FixedBatchPolicy(8))],
                            "a:2", n_requests=200, arrival_rate=RATE, lint=False)
    assert report.completed == 200


def test_faulted_runs_build_no_table_until_read(monkeypatch):
    """A faulted run fills its latencies and wait sums from its batch
    records, so neither entry point builds the table unless ``table`` is
    read; read afterwards, it is whole and lints clean."""
    build = fleet._FleetEngine.request_table
    read = []  # set once the test itself reads ``table``

    def refuse_until_read(self):
        if not read:
            raise AssertionError("request table built")
        return build(self)

    monkeypatch.setattr(fleet._FleetEngine, "request_table", refuse_until_read)
    tenants = [TenantSpec("x", affine, FixedBatchPolicy(8), slo=20e-3, weight=2.0),
               TenantSpec("y", slow, FixedBatchPolicy(8), slo=30e-3)]
    horizon = N / RATE
    reports = [
        simulate_mixed(tenants, devices=DEVICES, n_requests=N, arrival_rate=RATE,
                       faults=chaos_plan("single-failure", DEVICES, horizon, seed=1),
                       retry=RetryPolicy(), seed=2),
        simulate_fleet(tenants, "a:2,b:1", n_requests=N, arrival_rate=RATE,
                       faults=chaos_plan("single-failure", ("a", "b"), horizon, seed=1),
                       retry=RetryPolicy(), seed=2),
    ]
    for report in reports:
        assert report.fault_stats.retries > 0
        report.slo_attainment(0.05)
        mixed_serving_summary(report)
        format_tenant_breakdown(report)
        format_fault_stats(report)

    read.append(True)
    for report in reports:
        table = report.table
        assert len(table) == N and int(table.retries.sum()) == report.fault_stats.retries
        assert lint_serving_report(report).diagnostics == []


def test_attainment_from_columns_matches_per_object_definition():
    report = shedding_run()
    assert report.fault_stats.shed > 0
    requests = report.requests
    latencies = sorted({r.latency for r in requests if not r.shed})
    for slo in (0.0, *latencies, float("inf")):
        assert report.slo_attainment(slo) == per_object_attainment(requests, slo)


def test_empty_run_attains_vacuously():
    report = simulate(affine, FixedBatchPolicy(4), devices=("a",), n_requests=0)
    assert len(report.table) == 0 and report.requests == []
    assert report.slo_attainment(0.0) == 1.0


def test_table_round_trips_through_requests():
    report = shedding_run()
    requests = report.requests
    rebuilt = RequestTable.from_requests(requests).to_requests()
    assert repr(rebuilt) == repr(requests)
    # Shed requests keep NaN times, no slot and batch size 0.
    shed = [r for r in requests if r.shed]
    assert shed and all(np.isnan(r.dispatch) and r.device == "" and r.batch_size == 0
                        for r in shed)


def test_caller_indices_survive_the_table():
    tenants = [TenantSpec("x", affine, FixedBatchPolicy(4))]
    stream = [Request(index=100 + i, arrival=0.001 * (9 - i), tenant="x")
              for i in range(10)]
    report = simulate_mixed(tenants, devices=("a",), requests=stream, lint=False)
    assert [r.index for r in report.requests] == list(range(109, 99, -1))
    assert report.table.index.tolist() == list(range(109, 99, -1))


# -- the timeline lint rules read the columns -----------------------------------------------


def _table(tenants, slots, dispatch, shed=None, replicas=None):
    """A table of requests that ran on ``slots`` (replica 0 unless
    ``replicas`` says otherwise) at ``dispatch``."""
    n = len(tenants)
    names = tuple(dict.fromkeys(tenants))
    labels = tuple(dict.fromkeys(s for s in slots if s))
    dispatch = np.array(dispatch, dtype=np.float64)
    shed = np.zeros(n, dtype=bool) if shed is None else np.array(shed)
    if replicas is None:
        replicas = [0 if s else -1 for s in slots]
    return RequestTable(
        index=np.arange(n), arrival=dispatch - 0.01,
        tenant=np.array([names.index(t) for t in tenants]), tenants=names,
        dispatch=dispatch, finish=dispatch + 0.02,
        slot=np.array([labels.index(s) if s else -1 for s in slots]),
        slots=labels, replica=np.array(replicas, dtype=np.intp),
        batch_size=np.ones(n, dtype=np.intp),
        formation=np.zeros(n), retries=np.zeros(n, dtype=np.intp),
        shed=shed, degraded=np.zeros(n, dtype=bool))


def _report(table, fault_stats=None):
    return simulator.ServingReport(
        policy="adaptive", router="earliest-finish", n_requests=len(table),
        arrival_rate=None, makespan=1.0, throughput=0.0, mean_latency=0.0,
        p50_latency=0.0, p95_latency=0.0, p99_latency=0.0,
        mean_queue_time=0.0, mean_formation_wait=0.0, mean_service_time=0.0,
        group_stats={}, request_table=lambda: table, fault_stats=fault_stats)


def test_mmb304_fires_on_columns_without_building_requests():
    report = _report(_table(["avmnist", "mmimdb", "mmimdb"],
                            ["2080ti#0", "2080ti#0", "2080ti#0"],
                            [0.10, 0.10, 0.20]))
    diags = lint_serving_report(report).diagnostics
    assert [d.code for d in diags] == ["MMB304"]
    assert "avmnist" in diags[0].message and "mmimdb" in diags[0].message
    assert "requests" not in report.__dict__


@pytest.mark.parametrize("replicas, codes", [([1, 1], ["MMB304"]), ([0, 1], [])])
def test_mmb304_keys_a_batch_on_its_replica(replicas, codes):
    # Two tenants dispatched on one group at one instant are one batch
    # only when one replica ran them both.
    report = _report(_table(["avmnist", "mmimdb"], ["2080ti", "2080ti"],
                            [0.10, 0.10], replicas=replicas))
    assert [d.code for d in lint_serving_report(report).diagnostics] == codes


def test_multi_replica_fleet_run_lints_clean():
    # Replicas of one group dispatch two tenants' batches at one instant;
    # each batch still carries one tenant.
    tenants = [TenantSpec("x", affine, FixedBatchPolicy(8)),
               TenantSpec("y", affine, FixedBatchPolicy(8))]
    report = simulate_fleet(
        tenants, "a:2,b:1", n_requests=N, arrival_rate=RATE,
        faults=chaos_plan("single-failure", ("a", "b"), 0.02, seed=1),
        retry=RetryPolicy(deadline=8e-3))
    assert lint_serving_report(report).diagnostics == []
    table = report.table
    assert set(table.replica[table.slot == table.slots.index("a")]) == {0, 1}


@pytest.mark.parametrize("shed, codes", [(False, ["MMB305"]), (True, [])])
def test_mmb305_fires_on_columns_and_skips_shed_rows(shed, codes):
    stats = FaultStats(
        plan_events=1, issued=0, completed=0, shed=0, retries=0,
        devices={"nano#0": DeviceFaultStats(slot="nano#0", device="nano",
                                            downtime=0.3,
                                            down_windows=[(0.2, 0.5)])})
    report = _report(_table(["avmnist"], ["nano#0"], [0.30], shed=[shed]),
                     fault_stats=stats)
    assert [d.code for d in lint_serving_report(report).diagnostics] == codes
    assert "requests" not in report.__dict__
