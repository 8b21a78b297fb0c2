"""Fleet-simulator invariants under randomized configurations.

The anchor property: **requests are conserved**. Whatever the random
combination of groups, pools, autoscale policy, fault timeline (down
windows and transient stalls), retry deadline and policy mix, every
issued request either completes exactly once or is shed — scale-in
drains, group downs abort and retry, and the report's accounting
(per-group requests, per-tenant requests) sums back to the completions.
Without a deadline nothing is shed: each group goes down at most once,
so no request exceeds the default three retries.
"""

from __future__ import annotations

import numpy as np

from repro.serving import (
    AdaptiveSLOPolicy,
    AutoscalePolicy,
    DeviceGroup,
    FixedBatchPolicy,
    RetryPolicy,
    TenantSpec,
    TimeoutBatchPolicy,
    simulate_fleet,
)
from repro.serving.faults import (DeviceDown, DeviceRecover, FaultPlan,
                                  TransientStall)

DEVICES = ("2080ti", "orin", "nano")
SPEED = {"2080ti": 1.0, "orin": 1.7, "nano": 3.0}


class GradedCost:
    def __init__(self, scale):
        self.scale = scale

    def latency(self, device, batch_size):
        return self.scale * SPEED[device] * (0.002 + 0.0008 * batch_size)


def random_policy(rng):
    kind = rng.integers(0, 3)
    if kind == 0:
        return FixedBatchPolicy(int(rng.integers(1, 17)))
    if kind == 1:
        return TimeoutBatchPolicy(int(rng.integers(2, 17)),
                                  float(rng.uniform(0.001, 0.01)))
    return AdaptiveSLOPolicy(float(rng.uniform(0.02, 0.1)))


def random_fleet(rng):
    n_groups = int(rng.integers(1, len(DEVICES) + 1))
    devices = rng.permutation(DEVICES)[:n_groups]
    groups = []
    for device in devices:
        replicas = int(rng.integers(1, 5))
        pool = replicas + int(rng.integers(0, 5))
        groups.append(DeviceGroup(str(device), replicas, pool=pool))
    return tuple(groups)


def random_autoscale(rng):
    if rng.random() < 0.25:
        return None
    return AutoscalePolicy(
        metric="queue" if rng.random() < 0.7 else "p99",
        threshold=float(rng.uniform(1.0, 200.0)),
        interval=float(rng.uniform(0.01, 0.1)),
        cooldown=float(rng.uniform(0.0, 0.3)),
        step=int(rng.integers(1, 3)),
        min_replicas=1,
        idle_fraction=float(rng.uniform(0.25, 1.0)),
    )


def random_faults(rng, groups, horizon):
    # Down/recover windows for a strict subset of groups (at least one
    # group must stay up or the plan validator rejects it), and transient
    # stalls on any group.
    if rng.random() < 0.4:
        return None
    events = []
    for group in groups[1:]:
        if rng.random() < 0.5:
            continue
        start = float(rng.uniform(0.0, horizon * 0.6))
        end = start + float(rng.uniform(0.05, horizon * 0.3))
        events.append(DeviceDown(time=start, device=group.device))
        events.append(DeviceRecover(time=end, device=group.device))
    for group in groups:
        if rng.random() < 0.5:
            events.append(TransientStall(
                time=float(rng.uniform(0.0, horizon)), device=group.device,
                duration=float(rng.uniform(0.001, horizon * 0.1))))
    return FaultPlan(events=tuple(events)) if events else None


def test_completions_conserved_across_random_autoscale_timelines():
    rng = np.random.default_rng(20260808)
    for trial in range(25):
        tenants = [
            TenantSpec(name=f"t{i}", cost=GradedCost(float(rng.uniform(0.5, 2.0))),
                       policy=random_policy(rng), slo=0.05,
                       weight=float(rng.uniform(0.5, 3.0)))
            for i in range(int(rng.integers(1, 4)))
        ]
        groups = random_fleet(rng)
        n = int(rng.integers(500, 4_000))
        rate = float(rng.uniform(200.0, 3_000.0))
        horizon = n / rate
        retry = (RetryPolicy(deadline=float(rng.uniform(0.002, 0.02)))
                 if rng.random() < 0.3 else None)
        report = simulate_fleet(
            tenants, groups, n_requests=n, arrival_rate=rate,
            seed=int(rng.integers(0, 1_000)),
            autoscale=random_autoscale(rng),
            faults=random_faults(rng, groups, horizon), retry=retry,
            hop_bytes=float(rng.choice([0.0, 1e5, 1e6])),
        )
        context = f"trial {trial}"
        fs = report.fault_stats
        shed = fs.shed if fs is not None else 0
        assert report.completed + shed == report.n_requests == n, context
        if fs is not None:
            assert fs.completed + fs.shed == fs.issued == n, context
        if retry is None:
            assert report.completed == n, context
        done = report.completed
        assert sum(s.requests for s in report.group_stats.values()) == done, context
        assert sum(s.n_requests for s in report.tenant_stats.values()) == done, context
        assert np.isfinite(report.makespan), context
        assert report.latencies.size == done, context
        assert float(report.latencies.min(initial=np.inf)) >= 0.0 or n == 0, context
        # Scaling actions always respect the provisioned pool and the floor.
        for event in report.scaling_events:
            group = next(g for g in groups if g.device == event.group)
            assert 1 <= event.after <= group.capacity, context
