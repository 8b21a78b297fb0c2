"""Fault-injection invariants: empty-plan bit-identity and conservation.

Three properties anchor the fault subsystem:

1. An **empty fault plan is a no-op**: threading ``faults=FaultPlan()``
   (and a retry policy with no deadline) through the event loop must
   reproduce the fault-free schedule *bit-identically* — same makespan,
   same per-request timings, same histograms — across seeds, policies
   and scenarios.
2. **Requests are never lost**: under any valid fault plan,
   ``completed + shed == issued`` and every non-shed request has finite,
   fully-decomposed timings.
3. **Attainment adds up over tenants**: with every tenant on one SLO,
   the tenants' attainments weighted by their issued requests sum to
   the report's attainment over all issued requests, sheds included.
"""

import math

import numpy as np
import pytest

from repro.serving import (
    AdaptiveSLOPolicy,
    DeviceDown,
    DeviceGroup,
    DeviceRecover,
    FaultPlan,
    FixedBatchPolicy,
    RetryPolicy,
    TenantSpec,
    ThermalThrottle,
    TimeoutBatchPolicy,
    TransientStall,
    chaos_plan,
    simulate,
    simulate_fleet,
    simulate_mixed,
    validate_fault_plan,
)

DEVICES = ("a", "b")


def fast(k: int) -> float:
    return 40e-6 + 8e-6 * k


def slow(k: int) -> float:
    return 200e-6 + 40e-6 * k


def tenants():
    return [
        TenantSpec("fast", fast, FixedBatchPolicy(8), slo=10e-3),
        TenantSpec("slow", slow, AdaptiveSLOPolicy(50e-3), slo=50e-3),
    ]


def assert_reports_identical(base, faulted):
    """Every scalar and per-request field must match exactly (no approx)."""
    assert faulted.makespan == base.makespan
    assert faulted.throughput == base.throughput
    assert faulted.mean_latency == base.mean_latency
    assert faulted.p50_latency == base.p50_latency
    assert faulted.p99_latency == base.p99_latency
    assert faulted.mean_formation_wait == base.mean_formation_wait
    for slot in base.device_stats:
        b, f = base.device_stats[slot], faulted.device_stats[slot]
        assert f.batch_histogram == b.batch_histogram
        assert f.busy_time == b.busy_time
    for rb, rf in zip(base.requests, faulted.requests):
        assert rf.arrival == rb.arrival
        assert rf.dispatch == rb.dispatch
        assert rf.finish == rb.finish
        assert rf.batch_size == rb.batch_size
        assert rf.retries == 0 and not rf.shed


def random_plan(rng) -> FaultPlan:
    """A random valid plan: throttles, stalls, and down/up pairs on 'a'."""
    events = []
    t = 0.0
    for _ in range(rng.integers(1, 5)):
        t += float(rng.uniform(1e-3, 0.03))
        kind = rng.integers(0, 3)
        if kind == 0:
            end = t + float(rng.uniform(1e-3, 0.05))
            events.append(ThermalThrottle(
                rng.choice(DEVICES), t, end,
                factor=float(rng.uniform(1.1, 4.0))))
        elif kind == 1:
            events.append(TransientStall(
                rng.choice(DEVICES), t,
                duration=float(rng.uniform(1e-3, 0.02))))
        else:
            end = t + float(rng.uniform(1e-3, 0.05))
            events.append(DeviceDown("a", t))
            events.append(DeviceRecover("a", end))
            t = end  # keep down windows disjoint
    return FaultPlan(tuple(events))


class TestEmptyPlanBitIdentity:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("policy", [
        lambda: FixedBatchPolicy(8),
        lambda: TimeoutBatchPolicy(16, 1e-3),
        lambda: AdaptiveSLOPolicy(20e-3),
    ])
    def test_simulate_single(self, seed, policy):
        base = simulate(fast, policy(), devices=DEVICES, n_requests=600,
                        arrival_rate=30_000.0, seed=seed)
        faulted = simulate(fast, policy(), devices=DEVICES, n_requests=600,
                           arrival_rate=30_000.0, seed=seed,
                           faults=FaultPlan(), retry=RetryPolicy())
        assert_reports_identical(base, faulted)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("scenario", ["uniform", "heavy-head"])
    def test_simulate_mixed(self, seed, scenario):
        base = simulate_mixed(tenants(), devices=DEVICES, n_requests=800,
                              arrival_rate=20_000.0, scenario=scenario,
                              seed=seed)
        faulted = simulate_mixed(tenants(), devices=DEVICES, n_requests=800,
                                 arrival_rate=20_000.0, scenario=scenario,
                                 seed=seed, faults=FaultPlan(),
                                 retry=RetryPolicy())
        assert_reports_identical(base, faulted)
        for name in base.tenant_stats:
            b, f = base.tenant_stats[name], faulted.tenant_stats[name]
            assert f.p99_latency == b.p99_latency
            assert f.slo_attainment == b.slo_attainment

    def test_closed_batch_identity(self):
        base = simulate(fast, FixedBatchPolicy(16), devices=DEVICES,
                        n_requests=500)
        faulted = simulate(fast, FixedBatchPolicy(16), devices=DEVICES,
                           n_requests=500, faults=FaultPlan())
        assert_reports_identical(base, faulted)


class TestConservation:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_plans_never_lose_requests(self, seed):
        rng = np.random.default_rng(seed)
        plan = random_plan(rng)
        validate_fault_plan(plan, DEVICES)
        report = simulate(fast, FixedBatchPolicy(8), devices=DEVICES,
                          n_requests=700, arrival_rate=40_000.0, seed=seed,
                          faults=plan,
                          retry=RetryPolicy(max_retries=int(rng.integers(0, 4))))
        fs = report.fault_stats
        assert fs.completed + fs.shed == fs.issued == 700
        shed = sum(1 for r in report.requests if r.shed)
        assert shed == fs.shed
        for r in report.requests:
            if r.shed:
                continue
            assert math.isfinite(r.latency) and r.latency >= 0
            assert math.isfinite(r.finish) and r.finish >= r.dispatch >= r.arrival

    @pytest.mark.parametrize("seed", range(4))
    def test_random_plans_with_deadline(self, seed):
        rng = np.random.default_rng(100 + seed)
        plan = random_plan(rng)
        report = simulate(fast, FixedBatchPolicy(8), devices=DEVICES,
                          n_requests=700, arrival_rate=60_000.0, seed=seed,
                          faults=plan,
                          retry=RetryPolicy(deadline=float(rng.uniform(2e-3, 2e-2))))
        fs = report.fault_stats
        assert fs.completed + fs.shed == fs.issued == 700

    @pytest.mark.parametrize("name", ["single-failure", "rolling-restart",
                                      "thermal-brownout", "flaky-device"])
    def test_chaos_scenarios_conserve_mixed(self, name):
        plan = chaos_plan(name, DEVICES, horizon=0.05, seed=1)
        report = simulate_mixed(tenants(), devices=DEVICES, n_requests=900,
                                arrival_rate=18_000.0, seed=1, faults=plan,
                                retry=RetryPolicy())
        fs = report.fault_stats
        assert fs.completed + fs.shed == fs.issued == 900
        assert report.completed == fs.completed


class TestTenantAttainment:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("entry", ["mixed", "fleet"])
    def test_tenant_attainments_weighted_by_issued_sum_to_report(self, entry,
                                                                  seed):
        rng = np.random.default_rng(200 + seed)
        events, t = [], 0.0
        for _ in range(rng.integers(1, 4)):  # disjoint down windows on 'a'
            t += float(rng.uniform(0.0, 5e-3))
            end = t + float(rng.uniform(1e-3, 5e-3))
            events += [DeviceDown("a", t), DeviceRecover("a", end)]
            t = end
        plan = FaultPlan(tuple(events))
        retry = RetryPolicy(deadline=float(rng.uniform(1e-4, 1e-3)))
        slo = float(rng.uniform(2e-4, 2e-3))
        specs = [TenantSpec("fast", fast, FixedBatchPolicy(8), slo=slo),
                 TenantSpec("slow", slow, AdaptiveSLOPolicy(50e-3), slo=slo)]
        kwargs = dict(n_requests=700, arrival_rate=60_000.0, seed=seed,
                      faults=plan, retry=retry)
        if entry == "mixed":
            report = simulate_mixed(specs, devices=DEVICES, **kwargs)
        else:
            report = simulate_fleet(
                specs, (DeviceGroup("a", 2), DeviceGroup("b", 1)), **kwargs)
        assert report.fault_stats.shed > 0
        issued = np.bincount(report.table.tenant, minlength=len(specs))
        met = sum(stats.slo_attainment * n
                  for stats, n in zip(report.tenant_stats.values(), issued))
        assert met == pytest.approx(report.slo_attainment(slo) * report.n_requests,
                                    rel=0, abs=1e-9)
