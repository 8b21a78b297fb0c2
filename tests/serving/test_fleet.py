"""Fleet simulator: classic-parity differential, autoscaling, faults, hops.

The tier-1 anchor is the differential suite: with autoscaling off and no
hop costs, :func:`simulate_fleet` on homogeneous device groups must
reproduce :func:`simulate_mixed` on the groups' expansion into slots
(earliest-finish router) to 1e-9 — completions, latency percentiles,
per-tenant SLO attainment, the lot — with no faults and under chaos
plans of downs, recoveries and stalls. Both run the one serving engine;
the classic entry point gives every slot its own one-replica group, so
the pair pins that a group behaves like its slots.
"""

from __future__ import annotations

import tracemalloc

import pytest

import repro.serving.fleet as fleet
from repro.serving import (
    AdaptiveSLOPolicy,
    AutoscalePolicy,
    DeviceGroup,
    EarliestFinishRouter,
    FixedBatchPolicy,
    FleetConfigError,
    PROFILE_STATS,
    RetryPolicy,
    TenantSpec,
    TimeoutBatchPolicy,
    chaos_plan,
    make_tenants,
    parse_autoscale,
    parse_groups,
    scenario_columns,
    simulate_fleet,
    simulate_mixed,
)
from repro.serving.faults import (
    DeviceDown,
    DeviceRecover,
    FaultPlan,
    ThermalThrottle,
    TransientStall,
)
from repro.workloads.registry import list_workloads

REPORT_ATTRS = (
    "makespan", "mean_latency", "p50_latency", "p95_latency", "p99_latency",
    "mean_queue_time", "mean_formation_wait", "mean_service_time",
)
TENANT_ATTRS = (
    "n_requests", "mean_latency", "p50_latency", "p95_latency", "p99_latency",
    "mean_queue_time", "throughput",
)


class DeviceAwareCost:
    """Analytic affine cost with a per-device speed grade."""

    BASE = {"2080ti": 1.0, "orin": 1.7, "nano": 3.0}

    def __init__(self, scale: float = 1.0):
        self.scale = scale

    def latency(self, device: str, batch_size: int) -> float:
        return self.scale * self.BASE[device] * (0.004 + 0.001 * batch_size)


def analytic_tenants(policy_factory):
    return [
        TenantSpec(name=f"t{i}", cost=DeviceAwareCost(scale),
                   policy=policy_factory(), slo=0.05, weight=w)
        for i, (scale, w) in enumerate([(1.0, 3.0), (1.4, 1.0)])
    ]


def assert_matches_classic(tenants_fleet, tenants_classic, groups, devices,
                           n_requests, arrival_rate, seed, scenario="uniform",
                           faults=None):
    fleet = simulate_fleet(tenants_fleet, groups, n_requests=n_requests,
                           arrival_rate=arrival_rate, scenario=scenario,
                           seed=seed, faults=faults)
    classic = simulate_mixed(tenants_classic, devices=devices,
                             n_requests=n_requests, arrival_rate=arrival_rate,
                             scenario=scenario, seed=seed, faults=faults,
                             router=EarliestFinishRouter())
    assert fleet.n_requests == classic.n_requests
    for attr in REPORT_ATTRS:
        assert getattr(fleet, attr) == pytest.approx(
            getattr(classic, attr), abs=1e-9, rel=1e-9), attr
    for name, ref in classic.tenant_stats.items():
        got = fleet.tenant_stats[name]
        for attr in TENANT_ATTRS:
            assert float(getattr(got, attr)) == pytest.approx(
                float(getattr(ref, attr)), abs=1e-9, rel=1e-9), (name, attr)
        if ref.slo_attainment is not None:
            assert got.slo_attainment == pytest.approx(
                ref.slo_attainment, abs=1e-9), name
    return fleet, classic


# -- tier-1 differential: fleet == classic --------------------------------------------------------


@pytest.mark.parametrize("policy_factory", [
    lambda: FixedBatchPolicy(7),
    lambda: TimeoutBatchPolicy(8, 0.004),
    lambda: AdaptiveSLOPolicy(0.05),
], ids=["fixed", "timeout", "adaptive"])
def test_differential_analytic_costs(policy_factory):
    assert_matches_classic(
        analytic_tenants(policy_factory), analytic_tenants(policy_factory),
        groups=(DeviceGroup("2080ti", 2), DeviceGroup("nano", 1)),
        devices=("2080ti", "2080ti", "nano"),
        n_requests=5_000, arrival_rate=900.0, seed=3)


def test_differential_profiled_costs():
    assert_matches_classic(
        make_tenants(["avmnist", "mmimdb"], slo=50e-3),
        make_tenants(["avmnist", "mmimdb"], slo=50e-3),
        groups=(DeviceGroup("2080ti", 2), DeviceGroup("orin", 1)),
        devices=("2080ti", "2080ti", "orin"),
        n_requests=4_000, arrival_rate=1_500.0, seed=1)


def test_differential_closed_arrivals():
    assert_matches_classic(
        make_tenants(["avmnist", "mmimdb"], slo=50e-3),
        make_tenants(["avmnist", "mmimdb"], slo=50e-3),
        groups=(DeviceGroup("2080ti", 2), DeviceGroup("orin", 1)),
        devices=("2080ti", "2080ti", "orin"),
        n_requests=2_000, arrival_rate=None, seed=0)


def test_differential_heavy_head_scenario():
    assert_matches_classic(
        analytic_tenants(lambda: AdaptiveSLOPolicy(0.05)),
        analytic_tenants(lambda: AdaptiveSLOPolicy(0.05)),
        groups=(DeviceGroup("2080ti", 3), DeviceGroup("nano", 2)),
        devices=("2080ti",) * 3 + ("nano",) * 2,
        n_requests=6_000, arrival_rate=1_100.0, seed=7,
        scenario="heavy-head")


# -- tier-1 differential under faults: a group is its slots ---------------------------------------


FAULT_SETUPS = {
    "one-replica": ((DeviceGroup("2080ti", 1), DeviceGroup("orin", 1),
                     DeviceGroup("nano", 1)), ("2080ti", "orin", "nano")),
    # At most ten replicas per group, so slot labels sort in replica order.
    "multi-replica": ((DeviceGroup("2080ti", 3), DeviceGroup("nano", 2)),
                      ("2080ti",) * 3 + ("nano",) * 2),
}


@pytest.mark.parametrize("chaos", ["single-failure", "rolling-restart",
                                   "flaky-device"])
@pytest.mark.parametrize("setup", list(FAULT_SETUPS))
def test_differential_under_faults(setup, chaos):
    groups, devices = FAULT_SETUPS[setup]
    n, rate = 3_000, 1_400.0
    # The plan names bare devices: each group in the fleet run, every
    # slot of that device in the classic one.
    plan = chaos_plan(chaos, tuple(g.device for g in groups), n / rate, seed=5)
    tenants = lambda: analytic_tenants(lambda: AdaptiveSLOPolicy(0.05))  # noqa: E731
    fleet, classic = assert_matches_classic(
        tenants(), tenants(), groups=groups, devices=devices, n_requests=n,
        arrival_rate=rate, seed=5, faults=plan)
    got, ref = fleet.fault_stats, classic.fault_stats
    assert (got.completed, got.shed, got.retries) == (
        ref.completed, ref.shed, ref.retries)
    assert got.retries > 0 or chaos == "flaky-device"
    if chaos == "flaky-device":
        assert any(d.stall_time > 0 for d in got.devices.values())


# -- config parsing and validation ----------------------------------------------------------------


def test_parse_groups():
    groups = parse_groups("2080ti:64,orin:32,nano:16:24")
    assert [(g.device, g.replicas, g.capacity) for g in groups] == [
        ("2080ti", 64, 64), ("orin", 32, 32), ("nano", 16, 24)]


@pytest.mark.parametrize("spec", ["", "2080ti", "2080ti:0", "2080ti:x",
                                  "2080ti:4:2", "2080ti:4:4:4",
                                  "2080ti:2,2080ti:3"])
def test_parse_groups_rejects(spec):
    with pytest.raises((FleetConfigError, ValueError)):
        parse_groups(spec)


def test_parse_autoscale():
    scale = parse_autoscale("queue:64:0.1:0.5", min_replicas=2, max_replicas=8)
    assert (scale.metric, scale.threshold, scale.interval, scale.cooldown,
            scale.min_replicas, scale.max_replicas) == ("queue", 64.0, 0.1, 0.5, 2, 8)
    with pytest.raises((FleetConfigError, ValueError)):
        parse_autoscale("cpu:64")


def test_duplicate_group_devices_rejected():
    with pytest.raises(FleetConfigError, match="duplicate"):
        simulate_fleet(analytic_tenants(lambda: FixedBatchPolicy(4)),
                       (DeviceGroup("2080ti", 2), DeviceGroup("2080ti", 1)),
                       n_requests=10, arrival_rate=100.0)


def test_group_stall_freezes_every_replica():
    # A stall is a group-level event: both replicas freeze, so the run's
    # latencies grow and the stall is accounted once per replica.
    plan = FaultPlan(events=(TransientStall(time=0.1, device="2080ti",
                                            duration=0.05),))
    clean = simulate_fleet(analytic_tenants(lambda: FixedBatchPolicy(4)),
                           (DeviceGroup("2080ti", 2),),
                           n_requests=400, arrival_rate=1_000.0)
    stalled = simulate_fleet(analytic_tenants(lambda: FixedBatchPolicy(4)),
                             (DeviceGroup("2080ti", 2),),
                             n_requests=400, arrival_rate=1_000.0, faults=plan)
    fs = stalled.fault_stats
    assert fs.completed == fs.issued == 400 and fs.shed == 0
    assert fs.devices["2080ti"].stall_time == pytest.approx(2 * 0.05)
    assert stalled.p99_latency > clean.p99_latency


def test_columns_tenant_mismatch_rejected():
    tenants = analytic_tenants(lambda: FixedBatchPolicy(4))
    other = make_tenants(["avmnist", "mmimdb"], slo=50e-3)
    columns = scenario_columns("uniform", other, 100, arrival_rate=100.0)
    with pytest.raises(ValueError, match="tagged for tenants"):
        simulate_fleet(tenants, (DeviceGroup("2080ti", 2),), columns=columns,
                       arrival_rate=100.0)


def test_unsorted_columns_rejected():
    tenants = analytic_tenants(lambda: FixedBatchPolicy(4))
    columns = scenario_columns("uniform", tenants, 100, arrival_rate=100.0)
    shuffled = type(columns)(
        arrivals=columns.arrivals[::-1].copy(), codes=columns.codes,
        tenants=columns.tenants)
    with pytest.raises(ValueError, match="sorted"):
        simulate_fleet(tenants, (DeviceGroup("2080ti", 2),), columns=shuffled,
                       arrival_rate=100.0)


def test_empty_stream():
    report = simulate_fleet(analytic_tenants(lambda: FixedBatchPolicy(4)),
                            (DeviceGroup("2080ti", 2),), n_requests=0,
                            arrival_rate=100.0)
    assert report.n_requests == 0
    assert report.makespan == 0.0
    assert report.slo_attainment(0.05) == 1.0


# -- autoscaling edge cases ------------------------------------------------------------------------


def overloaded(n=20_000, rate=2_000.0, **kwargs):
    tenants = analytic_tenants(lambda: FixedBatchPolicy(8))
    return simulate_fleet(tenants, (DeviceGroup("2080ti", 1, pool=8),),
                          n_requests=n, arrival_rate=rate, seed=0, **kwargs)


def test_autoscale_scale_out_under_queue_pressure():
    report = overloaded(autoscale=AutoscalePolicy(threshold=20.0))
    assert report.completed == report.n_requests
    out = [e for e in report.scaling_events if e.after > e.before]
    assert out, "sustained overload never scaled out"
    stats = report.group_stats["2080ti"]
    assert stats.peak_replicas > 1
    assert all(1 <= e.after <= 8 for e in report.scaling_events)


def test_autoscale_scale_in_drains_never_aborts():
    # A lightly-loaded fleet: the queue repeatedly empties between
    # arrivals, so idle groups scale back in. Scale-in must *drain*
    # in-flight batches — every request still completes.
    tenants = analytic_tenants(lambda: FixedBatchPolicy(8))
    report = simulate_fleet(
        tenants, (DeviceGroup("2080ti", 4, pool=4), DeviceGroup("nano", 4, pool=4)),
        n_requests=10_000, arrival_rate=400.0, seed=0,
        autoscale=AutoscalePolicy(threshold=1e6, interval=0.02,
                                  cooldown=0.04, idle_fraction=0.5))
    assert report.completed == report.n_requests
    scale_in = [e for e in report.scaling_events if e.after < e.before]
    assert scale_in, "idle fleet never scaled back in"
    assert any(s.replicas < s.peak_replicas
               for s in report.group_stats.values())


def test_autoscale_cooldown_suppresses_thrash():
    fast = overloaded(autoscale=AutoscalePolicy(
        threshold=20.0, interval=0.02, cooldown=0.0))
    slow = overloaded(autoscale=AutoscalePolicy(
        threshold=20.0, interval=0.02, cooldown=0.4))
    assert slow.completed == fast.completed == 20_000
    fast_times = [e.time for e in fast.scaling_events]
    slow_times = [e.time for e in slow.scaling_events]
    assert slow_times, "cooldown suppressed scaling entirely"
    # Without a cooldown, back-to-back ticks act; with one, consecutive
    # actions on the (single) group are >= cooldown apart.
    assert any(b - a < 0.4 for a, b in zip(fast_times, fast_times[1:]))
    assert all(b - a >= 0.4 - 1e-12
               for a, b in zip(slow_times, slow_times[1:]))


def test_autoscale_respects_min_replicas_floor_under_faults():
    # The group goes down mid-run; while it is down the autoscaler must
    # not touch it, and scale-in can never cut below min_replicas.
    plan = FaultPlan(events=(DeviceDown(time=0.5, device="2080ti"),
                             DeviceRecover(time=1.5, device="2080ti")))
    tenants = analytic_tenants(lambda: FixedBatchPolicy(8))
    report = simulate_fleet(
        tenants, (DeviceGroup("2080ti", 4, pool=8), DeviceGroup("nano", 2, pool=4)),
        n_requests=10_000, arrival_rate=800.0, seed=0, faults=plan,
        autoscale=AutoscalePolicy(threshold=10.0, interval=0.02,
                                  cooldown=0.04, min_replicas=2,
                                  idle_fraction=0.25))
    assert report.completed == report.n_requests
    assert all(e.after >= 2 for e in report.scaling_events)
    down_window = [e for e in report.scaling_events
                   if e.group == "2080ti" and 0.5 <= e.time < 1.5]
    assert not down_window, "autoscaler acted on a downed group"


def test_autoscale_p99_metric():
    report = overloaded(autoscale=AutoscalePolicy(metric="p99", threshold=0.2))
    assert report.completed == report.n_requests
    assert any("p99" in e.reason for e in report.scaling_events
               if e.after > e.before)


def test_autoscale_policy_validation():
    with pytest.raises(ValueError):
        AutoscalePolicy(metric="cpu")
    with pytest.raises(ValueError):
        AutoscalePolicy(threshold=0.0)
    with pytest.raises(ValueError):
        AutoscalePolicy(min_replicas=4, max_replicas=2)
    with pytest.raises(ValueError):
        AutoscalePolicy(idle_fraction=0.0)


# -- faults and hop costs --------------------------------------------------------------------------


def test_group_down_reroutes_and_conserves():
    plan = chaos_plan("single-failure", ("2080ti", "nano"), 4.0, seed=0)
    tenants = analytic_tenants(lambda: FixedBatchPolicy(8))
    report = simulate_fleet(tenants,
                            (DeviceGroup("2080ti", 2), DeviceGroup("nano", 2)),
                            n_requests=8_000, arrival_rate=1_800.0, seed=0,
                            faults=plan)
    assert report.completed == 8_000
    assert all(s.requests > 0 for s in report.group_stats.values())


def test_group_throttle_stretches_latency():
    plan = FaultPlan(events=(ThermalThrottle(device="2080ti", time=0.0,
                                             until=100.0, factor=3.0),))
    tenants = analytic_tenants(lambda: FixedBatchPolicy(8))
    throttled = simulate_fleet(tenants, (DeviceGroup("2080ti", 2),),
                               n_requests=4_000, arrival_rate=700.0, seed=0,
                               faults=plan)
    clean = simulate_fleet(analytic_tenants(lambda: FixedBatchPolicy(8)),
                           (DeviceGroup("2080ti", 2),),
                           n_requests=4_000, arrival_rate=700.0, seed=0)
    assert throttled.completed == clean.completed == 4_000
    assert throttled.mean_service_time > clean.mean_service_time * 1.5


def test_hop_costs_charged_on_group_moves():
    tenants = analytic_tenants(lambda: FixedBatchPolicy(8))
    report = simulate_fleet(tenants,
                            (DeviceGroup("2080ti", 2), DeviceGroup("nano", 2)),
                            n_requests=8_000, arrival_rate=1_800.0, seed=0,
                            hop_bytes=1e6)
    hops = sum(s.hop_batches for s in report.group_stats.values())
    hop_time = sum(s.hop_time for s in report.group_stats.values())
    assert report.completed == 8_000
    assert hops > 0
    assert hop_time > 0.0

    free = simulate_fleet(analytic_tenants(lambda: FixedBatchPolicy(8)),
                          (DeviceGroup("2080ti", 2), DeviceGroup("nano", 2)),
                          n_requests=8_000, arrival_rate=1_800.0, seed=0)
    assert report.mean_latency > free.mean_latency


# -- report surface --------------------------------------------------------------------------------


def test_fleet_summary_renders():
    from repro.serving import fleet_summary

    report = overloaded(autoscale=AutoscalePolicy(threshold=20.0))
    text = fleet_summary(report)
    assert "issued (conserved)" in text
    assert "Per-group fleet breakdown" in text
    assert "autoscaling:" in text


# -- engine memory ---------------------------------------------------------------------------------


def memory_tenants():
    return make_tenants(list_workloads(),
                        policy_factory=lambda _w: FixedBatchPolicy(64), slo=50e-3)


@pytest.fixture(scope="module")
def memory_stream():
    """Warm tenants, their groups and a 200k-request stream."""
    groups = parse_groups("2080ti:8,orin:4,nano:2")
    warm = memory_tenants()
    # Fills the anchor curves and the dense tables outside the measurement.
    simulate_fleet(warm, groups, n_requests=2_000, arrival_rate=1e6,
                   scenario="heavy-head")
    return warm, groups, scenario_columns("heavy-head", warm, 200_000,
                                          arrival_rate=1e6)


def engine_peak_per_request(tenants, groups, columns, faults=None,
                            retry=None) -> float:
    """Peak traced bytes per request of one engine run."""
    tracemalloc.start()
    try:
        fleet._FleetEngine(tenants, groups, columns, None, faults, 0.0,
                           EarliestFinishRouter(), retry).run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / len(columns)


def test_engine_holds_no_per_request_objects(memory_stream):
    """The engine's peak memory is a few numpy columns per request, and
    fresh cost models get the warm dense latency tables and price
    nothing."""
    warm, groups, columns = memory_stream
    peak = engine_peak_per_request(warm, groups, columns)
    # Arrivals grouped by tenant are 8 B/request. The post-loop pass
    # holds two request-sized float64 temporaries for the waits (dispatch
    # instants, then formation waits; replica idle times) and frees them
    # before it builds the latencies: 24 B/request.
    assert peak <= 32.0, f"{peak:.1f} B/request"

    fresh = memory_tenants()
    for warm_spec, fresh_spec in zip(warm, fresh):
        for group in groups:
            assert (fresh_spec.cost.curve(group.device)
                    is warm_spec.cost.curve(group.device))
    pricings = PROFILE_STATS["pricings"]
    simulate_fleet(fresh, groups, n_requests=2_000, arrival_rate=1e6,
                   scenario="heavy-head", seed=1)
    assert PROFILE_STATS["pricings"] == pricings


@pytest.mark.parametrize("chaos", ["single-failure", "thermal-brownout"])
def test_faulted_engine_holds_no_per_request_objects(memory_stream, chaos):
    """Under faults a batch records its fresh slice and the retried
    requests it took, not its members, and the fill expands sorted runs
    of them: the peak stays a few numpy columns per request."""
    warm, groups, columns = memory_stream
    plan = chaos_plan(chaos, [g.device for g in groups], len(columns) / 1e6)
    peak = engine_peak_per_request(warm, groups, columns, plan, RetryPolicy())
    # Grouped arrivals and the tenant order (request ids for the retry
    # jitter) are 16 B/request. The post-loop pass holds the same two
    # request-sized temporaries as a fault-free run (the second one
    # first holds finish instants for the service sum) and frees them
    # before it builds the latencies: 32 B/request.
    assert peak <= 48.0, f"{peak:.1f} B/request"
