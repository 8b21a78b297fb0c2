"""The fleet engine against its frozen numpy-per-batch oracle.

``tests/serving/fleet_oracle.py`` keeps the fleet engine as it stood
while every batch paid for numpy calls on tiny arrays; the production
engine (:class:`repro.serving.fleet._FleetEngine`) runs its per-batch
work on Python scalars and fills per-request timing in one vectorized
pass after the loop. Swapping the oracle's ``_FleetEngine`` in swaps in
its own ``_GroupCost`` and ``_dense_curve`` with it. Both engines must
make the same decisions at the same instants, so every configuration
below must give identical latencies and identical report, group, tenant
and scaling-event fields. Three means are sums in another order and may
differ in the last bits: the report's ``mean_queue_time`` and
``mean_formation_wait`` and each tenant's ``mean_queue_time``, within
1e-12 relative.

Each case also asserts that it exercised what it is named after.
"""

import dataclasses

import numpy as np
import pytest

import repro.serving.fleet as fleet
from repro.serving import (
    AdaptiveSLOPolicy,
    AutoscalePolicy,
    DeviceGroup,
    FixedBatchPolicy,
    TenantSpec,
    TimeoutBatchPolicy,
    chaos_plan,
    make_tenants,
    simulate_fleet,
)
from repro.serving.request import RequestColumns
from tests.serving import fleet_oracle

REPORT_MEANS = ("mean_queue_time", "mean_formation_wait")
TENANT_MEANS = ("mean_queue_time",)
MEAN_RTOL = 1e-12

GROUPS = (DeviceGroup("2080ti", 3, pool=6), DeviceGroup("orin", 2, pool=4),
          DeviceGroup("nano", 1, pool=2))
DEVICES = tuple(g.device for g in GROUPS)
WORKLOADS = ("avmnist", "mmimdb", "transfuser")
N = 3_000
RATE = 120_000.0  # the diurnal peaks outrun the initial replicas: queues build


class DeviceAwareCost:
    """Analytic affine cost with a per-device speed grade."""

    BASE = {"2080ti": 1.0, "orin": 1.7, "nano": 3.0}

    def latency(self, device: str, batch_size: int) -> float:
        return self.BASE[device] * (0.004 + 0.001 * batch_size)


def profiled(policy_factory):
    return lambda: make_tenants(WORKLOADS, policy_factory=lambda _w: policy_factory(),
                                slo=50e-3)


def assert_close(ref: float, got: float, what: str) -> None:
    assert abs(ref - got) <= MEAN_RTOL * max(abs(ref), abs(got)), (what, ref, got)


def assert_same(ref, got) -> None:
    assert np.array_equal(ref.latencies, got.latencies)
    for f in dataclasses.fields(ref):
        if not f.compare:  # the latencies above; the table builder
            continue
        name = f.name
        a, b = getattr(ref, name), getattr(got, name)
        if name in REPORT_MEANS:
            assert_close(a, b, name)
        elif name == "tenant_stats":
            assert list(a) == list(b)
            for tenant in a:
                for g in dataclasses.fields(a[tenant]):
                    x, y = getattr(a[tenant], g.name), getattr(b[tenant], g.name)
                    if g.name in TENANT_MEANS:
                        assert_close(x, y, (tenant, g.name))
                    else:
                        assert x == y, (tenant, g.name, x, y)
        else:
            # group_stats (batch histograms included) and scaling_events
            # compare every dataclass field.
            assert a == b, (name, a, b)


def both(monkeypatch, make_tenants_fn, **kwargs):
    """Run one configuration on both engines, require the same report,
    and return the production engine's."""
    production = simulate_fleet(make_tenants_fn(), **kwargs)
    with monkeypatch.context() as m:
        m.setattr(fleet, "_FleetEngine", fleet_oracle._FleetEngine)
        reference = simulate_fleet(make_tenants_fn(), **kwargs)
    assert_same(reference, production)
    return production


def total(report, field):
    return sum(getattr(s, field) for s in report.group_stats.values())


# -- policies and arrival processes ----------------------------------------------------------------

@pytest.mark.parametrize("policy, scenario", [
    ("fixed", "uniform"),
    ("timeout", "heavy-head"),
    ("adaptive", "diurnal"),
    ("adaptive", "bursty"),
])
def test_policy_and_scenario(monkeypatch, policy, scenario):
    factory = {"fixed": lambda: FixedBatchPolicy(16),
               "timeout": lambda: TimeoutBatchPolicy(32, 1e-3),
               "adaptive": lambda: AdaptiveSLOPolicy(50e-3)}[policy]
    report = both(monkeypatch, profiled(factory), groups=GROUPS, n_requests=N,
                  arrival_rate=RATE, scenario=scenario, seed=3)
    assert report.n_requests == N
    batches = total(report, "batches")
    if policy == "fixed":
        assert N / batches <= 16
    if policy == "timeout":
        assert N / batches < 32, "no batch was cut by its timeout"


def test_closed_arrivals(monkeypatch):
    tenants = profiled(lambda: AdaptiveSLOPolicy(50e-3))
    report = both(monkeypatch, tenants, groups=GROUPS, n_requests=N,
                  arrival_rate=None, seed=1)
    # Everything arrives at t=0, so every latency is a finish time.
    assert report.latencies.max() == report.makespan


# -- autoscaling -----------------------------------------------------------------------------------

@pytest.mark.parametrize("metric, threshold", [("queue", 64.0), ("p99", 0.01)])
def test_autoscale(monkeypatch, metric, threshold):
    scale = AutoscalePolicy(metric=metric, threshold=threshold, interval=1e-3,
                            cooldown=2e-3, idle_fraction=0.25)
    report = both(monkeypatch, profiled(lambda: AdaptiveSLOPolicy(50e-3)),
                  groups=GROUPS, n_requests=4_000, arrival_rate=RATE,
                  scenario="diurnal", autoscale=scale, seed=5)
    assert any(e.after > e.before and e.reason.startswith(f"{metric}=")
               for e in report.scaling_events)


def test_rescale_while_retired_replicas_drain(monkeypatch):
    """Scale in while replicas 2 and 3 run long batches; replica 2 drains
    outside the active prefix and must stay out of it, and the scale-out
    that follows comes while replica 3 still drains, so the rebuilt idle
    set must leave 3 busy until it finishes."""
    # Replicas 0-1 take one request each (5 ms), replica 2 four (8 ms) and
    # replica 3 eight (12 ms). At the 6 ms tick half the group is idle and
    # nothing is queued, so it shrinks to 2; replica 2 drains at 8.2 ms.
    # The 8.5 ms burst queues 100 requests for the two active replicas,
    # and the 9 ms tick, past the cooldown, grows the group back to 4.
    arrivals = [0.0, 1e-4] + [2e-4] * 4 + [3e-4] * 8 + [8.5e-3] * 100
    columns = RequestColumns(np.array(arrivals), np.zeros(len(arrivals), dtype=np.int64),
                             ("t",))
    scale = AutoscalePolicy(threshold=20.0, interval=1e-3, cooldown=2e-3, step=2,
                            min_replicas=2, idle_fraction=0.5)

    seen = []
    tick = fleet._FleetEngine._tick

    def probe(engine, when):
        before = list(engine.act)
        tick(engine, when)
        for g, (old, new) in enumerate(zip(before, engine.act)):
            if new > old:
                seen.append(any(f > when for f in engine.free[g][old:new]))

    monkeypatch.setattr(fleet._FleetEngine, "_tick", probe)
    report = both(monkeypatch,
                  lambda: [TenantSpec("t", DeviceAwareCost(), FixedBatchPolicy(8))],
                  groups=(DeviceGroup("2080ti", 4),), columns=columns,
                  autoscale=scale)
    moves = [(e.before, e.after) for e in report.scaling_events]
    assert moves[:2] == [(4, 2), (2, 4)]
    assert seen and seen[0], "no scale-out found its retired replica still busy"


# -- hops and faults -------------------------------------------------------------------------------

def test_hop_costs(monkeypatch):
    report = both(monkeypatch, profiled(lambda: AdaptiveSLOPolicy(50e-3)),
                  groups=GROUPS, n_requests=N, arrival_rate=RATE,
                  scenario="heavy-head", hop_bytes=1e6, seed=2)
    assert total(report, "hop_batches") > 0
    assert total(report, "hop_time") > 0.0


# Only throttles: this engine drains a down group's batches where the
# production engine aborts and retries them (pinned against the classic
# path by test_fleet.py::test_differential_under_faults instead).
@pytest.mark.parametrize("chaos, kind", [
    ("thermal-brownout", "throttle-on"),
])
def test_fault_plans(monkeypatch, chaos, kind):
    plan = chaos_plan(chaos, DEVICES, N / RATE, seed=4)
    report = both(monkeypatch, profiled(lambda: AdaptiveSLOPolicy(50e-3)),
                  groups=GROUPS, n_requests=N, arrival_rate=RATE,
                  scenario="uniform", faults=plan, seed=4)
    edges = plan.resolve(list(DEVICES), {d: d for d in DEVICES})
    assert any(k == kind and when < report.makespan
               for when, _seq, k, _grp, _arg in edges)
