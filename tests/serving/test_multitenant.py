"""Multi-tenant concurrent serving: per-tenant queues, costs and SLOs."""

import pytest

from repro.serving import (
    AdaptiveSLOPolicy,
    DeviceDown,
    DeviceRecover,
    FaultPlan,
    FixedBatchPolicy,
    RetryPolicy,
    RoundRobinRouter,
    TenantSpec,
    make_requests,
    make_tenants,
    poisson_arrivals,
    simulate,
    simulate_fleet,
    simulate_mixed,
)
from repro.serving.request import Request


def fast(k: int) -> float:
    return 40e-6 + 8e-6 * k


def slow(k: int) -> float:
    return 200e-6 + 40e-6 * k


def two_tenants(policy_a=None, policy_b=None):
    return [
        TenantSpec("a", fast, policy_a or FixedBatchPolicy(8), slo=10e-3),
        TenantSpec("b", slow, policy_b or FixedBatchPolicy(8), slo=50e-3),
    ]


class TestMixedDispatch:
    def test_no_cross_tenant_batching(self):
        """Every request's service time matches *its own* tenant's cost at
        its batch size — impossible if batches mixed tenants."""
        report = simulate_mixed(two_tenants(), devices=("d",),
                                n_requests=2_000, arrival_rate=20_000.0, seed=0)
        cost = {"a": fast, "b": slow}
        for req in report.requests:
            assert req.service_time == pytest.approx(cost[req.tenant](req.batch_size))

    def test_tenant_tags_preserved_and_partitioned(self):
        report = simulate_mixed(two_tenants(), devices=("d", "d"),
                                n_requests=3_000, arrival_rate=30_000.0, seed=1)
        by_tag = {"a": 0, "b": 0}
        for req in report.requests:
            by_tag[req.tenant] += 1
        assert by_tag["a"] == report.tenant_stats["a"].n_requests
        assert by_tag["b"] == report.tenant_stats["b"].n_requests
        assert sum(by_tag.values()) == report.n_requests

    def test_single_tenant_mixed_equals_plain_simulate(self):
        """One tenant through the mixed path is bit-identical to simulate."""
        policy = FixedBatchPolicy(8)
        arrivals = poisson_arrivals(1_000, 10_000.0, seed=5)
        plain = simulate(fast, FixedBatchPolicy(8), devices=("d0", "d1"),
                         n_requests=1_000, arrival_rate=10_000.0, seed=5)
        mixed = simulate_mixed(
            [TenantSpec("t", fast, policy)], devices=("d0", "d1"),
            requests=make_requests(arrivals, tenant="t"),
            arrival_rate=10_000.0, seed=5)
        assert mixed.makespan == plain.makespan
        assert mixed.mean_latency == plain.mean_latency
        assert mixed.p99_latency == plain.p99_latency
        for slot in plain.device_stats:
            assert (mixed.device_stats[slot].batch_histogram
                    == plain.device_stats[slot].batch_histogram)

    def test_replaying_one_stream_leaves_prior_reports_intact(self):
        from repro.serving import scenario_requests

        tenants = two_tenants()
        stream = scenario_requests("uniform", tenants, 500,
                                   arrival_rate=100_000.0, seed=4)
        one = simulate_mixed(tenants, devices=("d",), requests=stream)
        first_latencies = [r.latency for r in one.requests]
        # Replaying the identical list on a different pool must not
        # clobber the first report's request timings.
        two = simulate_mixed(tenants, devices=("d", "d"), requests=stream)
        assert [r.latency for r in one.requests] == first_latencies
        assert two.makespan < one.makespan  # the saturated pool doubled

    def test_weights_shape_the_uniform_mix(self):
        tenants = [TenantSpec("a", fast, FixedBatchPolicy(8), weight=3.0),
                   TenantSpec("b", fast, FixedBatchPolicy(8), weight=1.0)]
        report = simulate_mixed(tenants, devices=("d",), n_requests=8_000,
                                arrival_rate=20_000.0, seed=0)
        share = report.tenant_stats["a"].n_requests / report.n_requests
        assert 0.70 < share < 0.80  # ~3/4 in expectation

    def test_fifo_within_each_tenant(self):
        report = simulate_mixed(two_tenants(), devices=("d",),
                                n_requests=2_000, arrival_rate=15_000.0, seed=2)
        for tenant in ("a", "b"):
            dispatches = [r.dispatch for r in report.requests if r.tenant == tenant]
            assert dispatches == sorted(dispatches)


class TestTenantStats:
    def test_per_tenant_slo_attainment(self):
        # Tenant "b" gets an SLO its slow cost model cannot possibly meet.
        tenants = [TenantSpec("a", fast, FixedBatchPolicy(8), slo=50e-3),
                   TenantSpec("b", slow, FixedBatchPolicy(8), slo=1e-6)]
        report = simulate_mixed(tenants, devices=("d",), n_requests=2_000,
                                arrival_rate=10_000.0, seed=0)
        assert report.tenant_stats["a"].slo_attainment == pytest.approx(1.0)
        assert report.tenant_stats["b"].slo_attainment == 0.0

    @pytest.mark.parametrize("entry", ["mixed", "fleet"])
    def test_shed_requests_count_as_misses(self, entry):
        """The 2080ti is down for the first 3 ms and requests retry within
        0.1 ms only, so 155 of 200 shed: each tenant's attainment divides
        its completed requests within the SLO by the requests it was
        issued, not by the requests it completed."""
        tenants = make_tenants(["avmnist", "mmimdb"],
                               policy_factory=lambda _w: AdaptiveSLOPolicy(50e-3),
                               slo=50e-3)
        plan = FaultPlan((DeviceDown("2080ti", 0.0), DeviceRecover("2080ti", 3e-3)))
        kwargs = dict(n_requests=200, arrival_rate=10_000.0, faults=plan,
                      retry=RetryPolicy(deadline=1e-4))
        if entry == "mixed":
            report = simulate_mixed(tenants, devices=("2080ti", "nano"), **kwargs)
        else:
            report = simulate_fleet(tenants, "2080ti:1,nano:1", **kwargs)
        assert report.fault_stats.shed == 155
        assert report.slo_attainment(50e-3) == 45 / 200
        avmnist, mmimdb = report.tenant_stats.values()
        assert (avmnist.n_requests, avmnist.slo_attainment) == (23, 23 / 88)
        assert (mmimdb.n_requests, mmimdb.slo_attainment) == (22, 22 / 112)

    def test_no_slo_means_no_attainment(self):
        tenants = [TenantSpec("a", fast, FixedBatchPolicy(8), slo=None)]
        report = simulate_mixed(tenants, devices=("d",), n_requests=500,
                                arrival_rate=5_000.0)
        assert report.tenant_stats["a"].slo_attainment is None
        assert report.tenant_stats["a"].slo is None

    def test_percentiles_ordered_per_tenant(self):
        report = simulate_mixed(two_tenants(), devices=("d",),
                                n_requests=4_000, arrival_rate=20_000.0, seed=3)
        for stats in report.tenant_stats.values():
            assert stats.p50_latency <= stats.p95_latency <= stats.p99_latency
            assert stats.mean_queue_time >= 0.0

    def test_throughputs_sum_to_total(self):
        report = simulate_mixed(two_tenants(), devices=("d", "d"),
                                n_requests=2_000, arrival_rate=20_000.0, seed=0)
        total = sum(s.throughput for s in report.tenant_stats.values())
        assert total == pytest.approx(report.throughput)

    def test_adaptive_tenant_protects_its_own_slo(self):
        """Each tenant's adaptive policy plans against its *own* curve."""
        tenants = [
            TenantSpec("a", fast, AdaptiveSLOPolicy(5e-3), slo=5e-3),
            TenantSpec("b", slow, AdaptiveSLOPolicy(50e-3), slo=50e-3),
        ]
        report = simulate_mixed(tenants, devices=("d", "d"), n_requests=4_000,
                                arrival_rate=30_000.0, seed=0)
        assert report.tenant_stats["a"].slo_attainment > 0.99
        assert report.tenant_stats["b"].slo_attainment > 0.99


class TestMixedValidation:
    def test_bad_args_raise(self):
        with pytest.raises(ValueError, match="at least one tenant"):
            simulate_mixed([], devices=("d",))
        with pytest.raises(ValueError, match="duplicate"):
            simulate_mixed([TenantSpec("a", fast, FixedBatchPolicy(1)),
                            TenantSpec("a", fast, FixedBatchPolicy(1))])
        with pytest.raises(ValueError, match="at least one device"):
            simulate_mixed(two_tenants(), devices=())
        with pytest.raises(ValueError, match="unknown tenants"):
            simulate_mixed(two_tenants(), devices=("d",),
                           requests=[Request(index=0, arrival=0.0, tenant="ghost")])
        with pytest.raises(ValueError, match="weight"):
            TenantSpec("a", fast, FixedBatchPolicy(1), weight=0.0)
        with pytest.raises(ValueError, match="slo"):
            TenantSpec("a", fast, FixedBatchPolicy(1), slo=-1.0)

    def test_unsorted_requests_are_resorted(self):
        requests = [Request(index=0, arrival=1.0, tenant="a"),
                    Request(index=1, arrival=0.5, tenant="a")]
        report = simulate_mixed([TenantSpec("a", fast, FixedBatchPolicy(1))],
                                devices=("d",), requests=requests)
        assert [r.arrival for r in report.requests] == [0.5, 1.0]
        dispatches = [r.dispatch for r in report.requests]
        assert dispatches == sorted(dispatches)

    def test_empty_mixed_run(self):
        report = simulate_mixed(two_tenants(), devices=("d",), n_requests=0,
                                arrival_rate=100.0)
        assert report.n_requests == 0
        assert report.tenant_stats["a"].n_requests == 0
        assert report.tenant_stats["a"].slo_attainment == 1.0  # vacuous
        assert report.slo_attainment(1e-9) == 1.0

    def test_determinism(self):
        a = simulate_mixed(two_tenants(), devices=("d", "d"), n_requests=2_000,
                           arrival_rate=20_000.0, scenario="bursty", seed=7)
        b = simulate_mixed(two_tenants(), devices=("d", "d"), n_requests=2_000,
                           arrival_rate=20_000.0, scenario="bursty", seed=7)
        assert a.mean_latency == b.mean_latency
        assert a.makespan == b.makespan

    def test_round_robin_router_supported(self):
        report = simulate_mixed(two_tenants(), devices=("d", "d"),
                                n_requests=1_000, arrival_rate=10_000.0,
                                router=RoundRobinRouter(), seed=0)
        assert report.router == "round-robin"
        assert report.n_requests == 1_000
