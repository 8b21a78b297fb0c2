"""Discrete-event serving simulator: dispatch mechanics and accounting."""

import numpy as np
import pytest

from repro.serving import (
    CallableCostModel,
    EarliestFinishRouter,
    FixedBatchPolicy,
    ProfiledCostModel,
    RoundRobinRouter,
    TimeoutBatchPolicy,
    simulate,
)


def affine(k: int) -> float:
    """50us fixed + 10us per task — the roofline model's typical shape."""
    return 50e-6 + 10e-6 * k


class HeteroCost:
    """'fast' serves batches 4x quicker than 'slow'."""

    def latency(self, device: str, batch_size: int) -> float:
        base = affine(batch_size)
        return base if device == "fast" else 4 * base


class TestClosedBatch:
    def test_hand_counted_makespan(self):
        report = simulate(affine, FixedBatchPolicy(10), devices=("d0",),
                          n_requests=100)
        # 10 batches of 10: each 50us + 100us = 150us.
        assert report.makespan == pytest.approx(10 * 150e-6)
        assert report.device_stats["d0"].utilization == pytest.approx(1.0)

    def test_two_identical_devices_halve_makespan(self):
        one = simulate(affine, FixedBatchPolicy(10), devices=("d",), n_requests=100)
        two = simulate(affine, FixedBatchPolicy(10), devices=("d", "d"),
                       n_requests=100)
        assert two.makespan == pytest.approx(one.makespan / 2)
        assert set(two.device_stats) == {"d#0", "d#1"}
        assert all(s.requests == 50 for s in two.device_stats.values())

    def test_callable_wrapped_automatically(self):
        plain = simulate(affine, FixedBatchPolicy(4), devices=("d",), n_requests=16)
        wrapped = simulate(CallableCostModel(affine), FixedBatchPolicy(4),
                           devices=("d",), n_requests=16)
        assert plain.makespan == wrapped.makespan


def single_server(batch_time, batch_size: int, n_tasks: int,
                  arrival_rate: float | None = None, seed: int = 0):
    """One server, one fixed batch size: the Sec. 5.1 case study."""
    return simulate(CallableCostModel(batch_time), FixedBatchPolicy(batch_size),
                    devices=("server",), n_requests=n_tasks,
                    arrival_rate=arrival_rate, seed=seed)


class TestSingleServer:
    def test_makespan_matches_hand_count(self):
        report = single_server(affine, batch_size=10, n_tasks=100)
        # 10 batches of 10: each 50us + 100us = 150us.
        assert report.makespan == pytest.approx(10 * 150e-6)
        assert report.total_utilization == pytest.approx(1.0)

    def test_larger_batches_raise_throughput(self):
        small = single_server(affine, batch_size=10, n_tasks=1000)
        large = single_server(affine, batch_size=100, n_tasks=1000)
        assert large.throughput > small.throughput
        assert large.makespan < small.makespan

    def test_sublinear_speedup(self):
        """10x batch never yields 10x throughput with fixed overhead."""
        b40 = single_server(affine, batch_size=40, n_tasks=10_000)
        b400 = single_server(affine, batch_size=400, n_tasks=10_000)
        assert b400.throughput / b40.throughput < 10.0

    def test_light_load_idles_the_server(self):
        # Arrivals far slower than service: utilization well below 1.
        report = single_server(affine, batch_size=8, n_tasks=200,
                               arrival_rate=100.0, seed=1)
        assert report.total_utilization < 0.5
        assert report.mean_latency < 0.05

    def test_overload_builds_queues(self):
        def slow(k):
            return 1e-3 + 1e-4 * k  # service slower than arrivals

        report = single_server(slow, batch_size=4, n_tasks=300,
                               arrival_rate=10_000.0, seed=1)
        assert report.total_utilization > 0.9
        assert report.p99_latency > report.p50_latency

    def test_latency_percentiles_ordered(self):
        report = single_server(affine, batch_size=16, n_tasks=256)
        assert report.mean_latency > 0
        assert report.p50_latency <= report.p99_latency <= report.makespan

    def test_deterministic_by_seed(self):
        a = single_server(affine, 8, 100, arrival_rate=500.0, seed=3)
        b = single_server(affine, 8, 100, arrival_rate=500.0, seed=3)
        assert a.mean_latency == b.mean_latency
        assert [r.latency for r in a.requests] == [r.latency for r in b.requests]

    def test_bad_args_raise(self):
        with pytest.raises(ValueError, match="batch_size must be positive"):
            single_server(affine, 0, 10)
        with pytest.raises(ValueError):
            single_server(affine, 4, -1)
        with pytest.raises(ValueError, match="arrival_rate must be positive"):
            single_server(affine, 4, 10, arrival_rate=0.0)
        with pytest.raises(ValueError, match="positive duration"):
            single_server(lambda k: 0.0, 4, 10)

    def test_zero_tasks_is_a_wellformed_empty_run(self):
        report = single_server(affine, 4, 0)
        assert report.n_requests == 0
        assert report.makespan == 0.0
        assert report.throughput == 0.0
        assert report.total_utilization == 0.0

    def test_profiled_cost_amortizes_over_batches(self):
        """A profiled workload serves closed batches faster per task as the
        batch grows (the Sec. 5.1 batch-size study on one server)."""
        cost = ProfiledCostModel("avmnist")
        reports = [
            simulate(cost, FixedBatchPolicy(b), devices=("2080ti",),
                     n_requests=256)
            for b in (1, 8, 64, 256)
        ]
        throughputs = [r.throughput for r in reports]
        assert throughputs == sorted(throughputs)
        assert throughputs[-1] > throughputs[0]


class TestAccounting:
    def test_fifo_dispatch_order(self):
        report = simulate(affine, FixedBatchPolicy(8), devices=("d",),
                          n_requests=200, arrival_rate=20_000.0, seed=2)
        dispatches = [r.dispatch for r in report.requests]
        assert dispatches == sorted(dispatches)

    def test_latency_decomposition_sums(self):
        report = simulate(affine, TimeoutBatchPolicy(16, 1e-3), devices=("d",),
                          n_requests=300, arrival_rate=5_000.0, seed=0)
        for req in report.requests:
            assert req.latency == pytest.approx(req.queue_time + req.service_time)
            assert 0.0 <= req.formation_wait <= req.queue_time + 1e-12

    def test_fixed_policy_has_no_formation_wait(self):
        report = simulate(affine, FixedBatchPolicy(8), devices=("d",),
                          n_requests=300, arrival_rate=5_000.0, seed=0)
        assert report.mean_formation_wait == 0.0

    def test_timeout_policy_trades_wait_for_batches(self):
        eager = simulate(affine, FixedBatchPolicy(16), devices=("d",),
                         n_requests=500, arrival_rate=5_000.0, seed=1)
        held = simulate(affine, TimeoutBatchPolicy(16, 2e-3), devices=("d",),
                        n_requests=500, arrival_rate=5_000.0, seed=1)
        assert held.mean_formation_wait > 0.0
        assert held.device_stats["d"].mean_batch > eager.device_stats["d"].mean_batch
        assert held.device_stats["d"].batches < eager.device_stats["d"].batches

    def test_percentiles_ordered_and_attainment_monotone(self):
        report = simulate(affine, FixedBatchPolicy(8), devices=("d",),
                          n_requests=400, arrival_rate=10_000.0, seed=3)
        assert report.p50_latency <= report.p95_latency <= report.p99_latency
        assert report.slo_attainment(report.p99_latency) >= 0.99
        assert report.slo_attainment(0.0) == 0.0
        assert report.slo_attainment(np.inf) == 1.0

    def test_batch_histogram_consistent(self):
        report = simulate(affine, FixedBatchPolicy(10), devices=("d",),
                          n_requests=105)
        stats = report.device_stats["d"]
        assert sum(k * n for k, n in stats.batch_histogram.items()) == 105
        assert sum(stats.batch_histogram.values()) == stats.batches
        assert report.batch_sizes_used()["d"] == [5, 10]


class TestRouting:
    def test_earliest_finish_prefers_fast_device(self):
        report = simulate(HeteroCost(), FixedBatchPolicy(8),
                          devices=("fast", "slow"), n_requests=400,
                          arrival_rate=50_000.0, seed=0)
        assert report.device_stats["fast"].requests > 2 * report.device_stats["slow"].requests

    def test_round_robin_spreads_evenly_on_identical_devices(self):
        report = simulate(affine, FixedBatchPolicy(10), devices=("d", "d"),
                          n_requests=200, router=RoundRobinRouter())
        counts = [s.requests for s in report.device_stats.values()]
        assert counts[0] == counts[1] == 100

    def test_hold_on_one_device_still_offers_the_others(self):
        # Round-robin ranks the slow slot first half the time; the adaptive
        # policy holds on it (a guaranteed SLO miss) and must still land
        # the request on the idle fast slot in the same pass.
        from repro.serving import AdaptiveSLOPolicy

        class Lopsided:
            def latency(self, device, k):
                return (1.1e-3 if device == "fast" else 100e-3) + 1e-5 * k

        report = simulate(Lopsided(), AdaptiveSLOPolicy(slo=50e-3),
                          devices=("fast", "slow"), n_requests=200,
                          arrival_rate=200.0, router=RoundRobinRouter(), seed=0)
        assert report.slo_attainment(50e-3) > 0.99
        assert report.device_stats["fast"].requests > report.device_stats["slow"].requests

    def test_round_robin_rotates_per_dispatch_not_per_offer(self):
        router = RoundRobinRouter()
        cost = CallableCostModel(affine)
        # Repeated offers without a dispatch (policy holding) don't skew.
        assert router.rank(["a", "b"], 1, cost) == ["a", "b"]
        assert router.rank(["a", "b"], 1, cost) == ["a", "b"]
        router.note_dispatch("a")
        assert router.rank(["a", "b"], 1, cost) == ["b", "a"]

    def test_router_recorded_in_report(self):
        report = simulate(affine, FixedBatchPolicy(4), devices=("d",),
                          n_requests=8, router=EarliestFinishRouter())
        assert report.router == "earliest-finish"


class _PickyPolicy:
    """Scripted policy: dispatches singles only on one device, records
    every offer the simulator makes."""

    name = "picky"

    def __init__(self, accept):
        self.accept = accept
        self.offers = []

    def decide(self, now, queue_len, oldest_wait, device, cost):
        self.offers.append((now, device))
        return 1 if device == self.accept else None

    def next_wakeup(self, now, oldest_arrival):
        return None


class TestRouterPolicyPaths:
    """The per-device hold loop and router rotation under changing idle
    sets — the interaction paths between `simulate`, policies and routers."""

    def test_round_robin_rotation_under_changing_idle_sets(self):
        router = RoundRobinRouter()
        cost = CallableCostModel(affine)
        assert router.rank(["a", "b", "c"], 1, cost) == ["a", "b", "c"]
        router.note_dispatch("a")
        # Idle set shrank between dispatches: pivot 1 over sorted(["b","c"]).
        assert router.rank(["b", "c"], 1, cost) == ["c", "b"]
        router.note_dispatch("c")
        # All three idle again: pivot 2.
        assert router.rank(["a", "b", "c"], 1, cost) == ["c", "a", "b"]
        router.note_dispatch("b")
        # pivot 3 % 2 == 1 over sorted(["a","c"]).
        assert router.rank(["a", "c"], 1, cost) == ["c", "a"]
        # Offers with no dispatch never advance the rotation.
        assert router.rank(["a", "c"], 1, cost) == ["c", "a"]

    def test_hold_loop_offers_every_idle_slot_in_rank_order(self):
        # The policy holds on "a" (ranked first: label tie-break) and
        # accepts only "b": every batch must land on "b", and each "b"
        # offer must have been preceded by a spurned "a" offer at the
        # same instant — the per-device hold loop at work.
        policy = _PickyPolicy("b")
        report = simulate(affine, policy, devices=("a", "b"), n_requests=3)
        assert report.device_stats["b"].requests == 3
        assert report.device_stats["a"].requests == 0
        b_offers = [i for i, (_, dev) in enumerate(policy.offers) if dev == "b"]
        for i in b_offers:
            assert policy.offers[i - 1][1] == "a"
            assert policy.offers[i - 1][0] == policy.offers[i][0]

    def test_hold_everywhere_with_no_events_raises(self):
        class AlwaysHold:
            name = "never"

            def decide(self, now, queue_len, oldest_wait, device, cost):
                return None

            def next_wakeup(self, now, oldest_arrival):
                return None

        with pytest.raises(RuntimeError, match="held with no pending events"):
            simulate(affine, AlwaysHold(), devices=("d",), n_requests=4)


class TestDeterminism:
    def test_same_seed_same_report(self):
        a = simulate(affine, FixedBatchPolicy(8), devices=("d", "d"),
                     n_requests=300, arrival_rate=8_000.0, seed=7)
        b = simulate(affine, FixedBatchPolicy(8), devices=("d", "d"),
                     n_requests=300, arrival_rate=8_000.0, seed=7)
        assert a.mean_latency == b.mean_latency
        assert a.makespan == b.makespan

    def test_different_seed_different_stream(self):
        a = simulate(affine, FixedBatchPolicy(8), devices=("d",),
                     n_requests=300, arrival_rate=8_000.0, seed=1)
        b = simulate(affine, FixedBatchPolicy(8), devices=("d",),
                     n_requests=300, arrival_rate=8_000.0, seed=2)
        assert a.mean_latency != b.mean_latency


class TestValidation:
    def test_bad_args_raise(self):
        with pytest.raises(ValueError):
            simulate(affine, FixedBatchPolicy(4), devices=(), n_requests=10)
        with pytest.raises(ValueError):
            simulate(affine, FixedBatchPolicy(4), devices=("d",), n_requests=-1)
        with pytest.raises(ValueError):
            simulate(affine, FixedBatchPolicy(4), devices=("d",), n_requests=10,
                     arrival_rate=-1.0)
        with pytest.raises(ValueError, match="positive duration"):
            simulate(lambda k: 0.0, FixedBatchPolicy(4), devices=("d",),
                     n_requests=10)


class TestEmptySimulation:
    """n_requests=0 returns a well-formed empty report (the old code
    crashed before ever building one)."""

    @pytest.mark.parametrize("arrival_rate", [None, 100.0])
    def test_empty_report_wellformed(self, arrival_rate):
        report = simulate(affine, FixedBatchPolicy(4), devices=("d0", "d1"),
                          n_requests=0, arrival_rate=arrival_rate)
        assert report.n_requests == 0
        assert report.requests == []
        assert report.makespan == 0.0
        assert report.throughput == 0.0
        assert report.mean_latency == 0.0
        assert report.p99_latency == 0.0
        assert set(report.device_stats) == {"d0", "d1"}
        for stats in report.device_stats.values():
            assert stats.batches == 0 and stats.requests == 0
            assert stats.utilization == 0.0 and stats.mean_batch == 0.0
        assert report.batch_sizes_used() == {"d0": [], "d1": []}
        assert report.total_utilization == 0.0

    def test_empty_slo_attainment_is_vacuous(self):
        report = simulate(affine, FixedBatchPolicy(4), devices=("d",),
                          n_requests=0)
        # No request missed the SLO, so attainment is vacuously 1 (and no
        # ZeroDivisionError).
        assert report.slo_attainment(1e-6) == 1.0
