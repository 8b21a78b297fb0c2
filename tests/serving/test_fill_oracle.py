"""A faulted run's per-request timing equals the table-based fill.

:mod:`tests.serving.fill_oracle` keeps the fill a faulted run used while
it built its whole request table; the engine now expands sorted batch
runs instead. Latencies and the arrival, dispatch, formation and
service sums must agree bit for bit under every chaos scenario, deadline
shedding, a degraded tenant, multi-replica groups and p99 autoscaling
under faults.
"""

import numpy as np
import pytest

from repro.serving import (
    CHAOS_SCENARIO_NAMES,
    AdaptiveSLOPolicy,
    AutoscalePolicy,
    DegradedMode,
    FixedBatchPolicy,
    RetryPolicy,
    TenantSpec,
    chaos_plan,
    simulate_fleet,
    simulate_mixed,
)
from tests.serving.fill_oracle import assert_fill_matches, capture_engines

DEVICES = ("a", "a", "b")
N = 600
RATE = 30_000.0


def affine(k: int) -> float:
    return 1e-3 + 1e-4 * k


def slow(k: int) -> float:
    return 2e-3 + 3e-4 * k


@pytest.fixture
def engines(monkeypatch):
    return capture_engines(monkeypatch)


def tenants(degraded=None):
    return [TenantSpec("x", affine, FixedBatchPolicy(8), slo=20e-3, weight=2.0),
            TenantSpec("y", slow, AdaptiveSLOPolicy(30e-3), slo=30e-3,
                       degraded=degraded)]


@pytest.mark.parametrize("deadline", [None, 8e-3])
@pytest.mark.parametrize("chaos", CHAOS_SCENARIO_NAMES)
def test_mixed_fill_matches_table(engines, chaos, deadline):
    plan = chaos_plan(chaos, DEVICES, N / RATE, seed=1)
    report = simulate_mixed(tenants(), devices=DEVICES, n_requests=N,
                            arrival_rate=RATE, faults=plan,
                            retry=RetryPolicy(deadline=deadline), seed=2,
                            lint=False)
    assert (report.fault_stats.shed > 0) == (deadline is not None)
    assert_fill_matches(engines[-1])


def test_degraded_tenant_fill_matches_table(engines):
    mode = DegradedMode("audio", latency_factor=0.5, enter_wait=2e-3)
    plan = chaos_plan("single-failure", DEVICES, N / RATE, seed=1)
    report = simulate_mixed(tenants(mode), devices=DEVICES, n_requests=N,
                            arrival_rate=RATE, faults=plan, retry=RetryPolicy(),
                            seed=2, lint=False)
    stats = report.fault_stats.tenants["y"]
    assert stats.degraded_requests > 0
    assert_fill_matches(engines[-1])
    # The degraded attainment, from the table's own flags.
    table = report.table
    mask = (table.tenant == table.tenants.index("y")) & table.degraded & ~table.shed
    latency = (table.finish - table.arrival)[mask]
    assert stats.degraded_slo_attainment == float(np.mean(latency <= 30e-3))


@pytest.mark.parametrize("autoscale", [
    None, AutoscalePolicy(metric="p99", threshold=1e-3, interval=1e-3, cooldown=2e-3)])
@pytest.mark.parametrize("chaos", ["single-failure", "flaky-device"])
@pytest.mark.parametrize("deadline", [None, 8e-3])
def test_fleet_fill_matches_table(engines, chaos, autoscale, deadline):
    specs = [TenantSpec("x", affine, FixedBatchPolicy(8), slo=20e-3),
             TenantSpec("y", slow, FixedBatchPolicy(8), slo=30e-3)]
    plan = chaos_plan(chaos, ("a", "b"), 0.02, seed=1)
    report = simulate_fleet(specs, "a:2:4,b:1:2", n_requests=N, arrival_rate=RATE,
                            faults=plan, retry=RetryPolicy(deadline=deadline),
                            autoscale=autoscale, lint=False)
    assert report.fault_stats.retries > 0
    if autoscale is not None:
        assert any("p99" in e.reason for e in report.scaling_events)
    assert_fill_matches(engines[-1])
