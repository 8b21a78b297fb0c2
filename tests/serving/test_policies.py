"""Dynamic batching policies: decision rules and SLO adaptation."""

import math

import pytest

from repro.serving import (
    AdaptiveSLOPolicy,
    CallableCostModel,
    FixedBatchPolicy,
    PROFILE_STATS,
    ProfiledCostModel,
    TimeoutBatchPolicy,
    make_policy,
    simulate,
)
from repro.serving.policies import _wake_after
from repro.serving.fleet import _GroupCost


def affine(k: int) -> float:
    return 50e-6 + 10e-6 * k


COST = CallableCostModel(affine)


class TestFixed:
    def test_caps_at_batch_size(self):
        policy = FixedBatchPolicy(8)
        assert policy.decide(0.0, 3, 0.0, "d", COST) == 3
        assert policy.decide(0.0, 100, 0.0, "d", COST) == 8

    def test_never_holds(self):
        assert FixedBatchPolicy(8).decide(0.0, 1, 0.0, "d", COST) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedBatchPolicy(0)


class TestTimeout:
    def test_holds_below_batch_and_timeout(self):
        policy = TimeoutBatchPolicy(8, 1e-3)
        assert policy.decide(0.0, 3, 0.5e-3, "d", COST) is None

    def test_fires_on_full_batch(self):
        policy = TimeoutBatchPolicy(8, 1e-3)
        assert policy.decide(0.0, 8, 0.0, "d", COST) == 8

    def test_fires_on_timeout_with_partial_batch(self):
        policy = TimeoutBatchPolicy(8, 1e-3)
        assert policy.decide(0.0, 3, 1e-3, "d", COST) == 3

    def test_wakeup_at_oldest_plus_timeout(self):
        policy = TimeoutBatchPolicy(8, 1e-3)
        assert policy.next_wakeup(0.5, 0.4) == pytest.approx(0.4 + 1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeoutBatchPolicy(0, 1e-3)
        with pytest.raises(ValueError):
            TimeoutBatchPolicy(8, -1.0)


class TestAdaptive:
    def test_batch_cost_stays_within_slo_headroom(self):
        policy = AdaptiveSLOPolicy(slo=1e-3, safety=0.8)
        size = policy.decide(0.0, 10_000, 0.0, "d", COST)
        assert COST.latency("d", size) <= 0.8 * 1e-3
        # And it is the *largest* such batch.
        assert COST.latency("d", size + 1) > 0.8 * 1e-3

    def test_shrinks_headroom_as_oldest_waits(self):
        policy = AdaptiveSLOPolicy(slo=1e-3, safety=1.0)
        fresh = policy.decide(0.0, 10_000, 0.0, "d", COST)
        stale = policy.decide(0.0, 10_000, 0.5e-3, "d", COST)
        assert stale < fresh

    def test_caps_at_queue_depth(self):
        policy = AdaptiveSLOPolicy(slo=1.0)
        assert policy.decide(0.0, 3, 0.0, "d", COST) == 3

    def test_holds_on_device_too_slow_for_slo(self):
        # affine(1) = 60us > the whole 50us budget: a dispatch here is a
        # guaranteed miss, so hold while the budget lasts...
        policy = AdaptiveSLOPolicy(slo=50e-6, safety=1.0)
        assert policy.decide(0.0, 10, 0.0, "d", COST) is None
        assert policy.next_wakeup(0.0, 0.0) >= 50e-6
        # ...and drain once it is spent.
        assert policy.decide(0.0, 10, 60e-6, "d", COST) is not None

    def test_blown_slo_switches_to_drain_mode(self):
        # Oldest already waited past the SLO: dispatch the
        # throughput-optimal batch (the largest, under affine costs).
        policy = AdaptiveSLOPolicy(slo=1e-3, max_batch=512)
        size = policy.decide(0.0, 10_000, 5e-3, "d", COST)
        assert size == 512

    def test_respects_max_batch(self):
        policy = AdaptiveSLOPolicy(slo=10.0, max_batch=64)
        assert policy.decide(0.0, 10_000, 0.0, "d", COST) == 64

    def test_drain_batch_not_shared_across_cost_models(self):
        # Superlinear curves with different throughput optima: one policy
        # instance must compute each cost model's own drain batch.
        cost_a = CallableCostModel(lambda k: 1e-3 + 1e-6 * k * k)  # optimum ~32
        cost_b = CallableCostModel(lambda k: 1e-3 + 1e-8 * k * k)  # optimum ~256
        policy = AdaptiveSLOPolicy(slo=1e-6, max_batch=512)  # always drain mode
        assert policy.decide(0.0, 10_000, 1.0, "d", cost_a) == 32
        assert policy.decide(0.0, 10_000, 1.0, "d", cost_b) == 256

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveSLOPolicy(0.0)
        with pytest.raises(ValueError):
            AdaptiveSLOPolicy(1.0, max_batch=0)
        with pytest.raises(ValueError):
            AdaptiveSLOPolicy(1.0, safety=1.5)


class TestWakeAfter:
    """The float-rounding livelock guard behind every policy wakeup."""

    def test_wakeup_survives_its_own_comparison(self):
        # Wake times must satisfy `wake - base >= delta` — the comparison
        # `decide` makes at the wakeup — even where `base + delta` rounds
        # down. Sweep magnitudes where the rounding actually bites.
        bases = [0.1, 0.3, 1.0, 3.0, 1e3, 1e6, 12345.6789, 2**40 + 0.5]
        deltas = [1e-3, 2e-3, 1e-6, 0.1, 1.0 / 3.0, 5e-9]
        for base in bases:
            for delta in deltas:
                wake = _wake_after(base, delta)
                assert wake - base >= delta, (base, delta)
                # And it is the tightest such float: either the plain sum
                # already satisfied the invariant, or stepping one ulp back
                # lands on an iterate that failed it.
                assert (wake == base + delta
                        or math.nextafter(wake, -math.inf) - base < delta)

    def test_plain_sum_would_livelock(self):
        # A concrete pair where naive `base + delta` fails the comparison,
        # demonstrating why the guard exists.
        base, delta = 1.0, 1e-3
        assert (base + delta) - base < delta
        assert _wake_after(base, delta) - base >= delta

    def test_timeout_policy_simulation_never_livelocks(self):
        # Pathological (base, delta) pairs occur naturally under Poisson
        # arrivals; the run completing at all is the livelock regression.
        report = simulate(affine, TimeoutBatchPolicy(64, 1e-3), devices=("d",),
                          n_requests=2_000, arrival_rate=3_000.0, seed=11)
        assert report.n_requests == 2_000


class TestDrainMemo:
    """The drain-batch memo must key on the underlying cost model, not on
    the per-run group wrapper the engine hands to ``decide``."""

    class CountingCost:
        def __init__(self):
            self.calls = 0

        def latency(self, device, k):
            self.calls += 1
            return 1e-3 + 1e-6 * k * k

    def test_memo_survives_new_slot_wrappers(self):
        cost = self.CountingCost()
        policy = AdaptiveSLOPolicy(slo=1e-6, max_batch=512)  # always drains
        # Two simulations build two distinct wrappers over the same model.
        first = _GroupCost(cost, {"slot": "dev"})
        policy.decide(0.0, 1_000, 1.0, "slot", first)
        probes = cost.calls
        assert probes > 2  # the ladder search ran once
        second = _GroupCost(cost, {"slot": "dev"})
        policy.decide(0.0, 1_000, 1.0, "slot", second)
        # Only decide's own headroom probe (latency at k=1) runs again;
        # the ladder search is a memo hit despite the fresh wrapper.
        assert cost.calls == probes + 1

    def test_memo_keys_on_device_not_slot_label(self):
        cost = self.CountingCost()
        policy = AdaptiveSLOPolicy(slo=1e-6, max_batch=512)
        policy.decide(0.0, 1_000, 1.0, "dev#0", _GroupCost(cost, {"dev#0": "dev"}))
        probes = cost.calls
        # A different slot label over the same device model: still a memo
        # hit (only the per-decide headroom probe runs).
        policy.decide(0.0, 1_000, 1.0, "dev#3", _GroupCost(cost, {"dev#3": "dev"}))
        assert cost.calls == probes + 1

    def test_distinct_models_keep_distinct_optima(self):
        policy = AdaptiveSLOPolicy(slo=1e-6, max_batch=512)
        cost_a = CallableCostModel(lambda k: 1e-3 + 1e-6 * k * k)  # optimum ~32
        cost_b = CallableCostModel(lambda k: 1e-3 + 1e-8 * k * k)  # optimum ~256
        a = policy.decide(0.0, 10_000, 1.0, "d", _GroupCost(cost_a, {}))
        b = policy.decide(0.0, 10_000, 1.0, "d", _GroupCost(cost_b, {}))
        assert (a, b) == (32, 256)

    def test_profiled_stats_flat_across_simulations(self):
        # End-to-end: repeated drain-heavy simulations over one profiled
        # model do no extra captures/pricings once the curves are warm.
        cost = ProfiledCostModel("avmnist", anchors=(1, 8, 32))
        policy = AdaptiveSLOPolicy(slo=1e-4, max_batch=64)
        simulate(cost, policy, devices=("2080ti",), n_requests=200,
                 arrival_rate=50_000.0, seed=0)
        before = dict(PROFILE_STATS)
        simulate(cost, policy, devices=("2080ti",), n_requests=200,
                 arrival_rate=50_000.0, seed=1)
        assert dict(PROFILE_STATS) == before


class TestEndToEndSLO:
    def test_adaptive_sustains_overload_that_fixed_cannot(self):
        """The acceptance scenario in miniature: one device, same stream."""
        rate = 1.5 / affine(1)  # 1.5x the no-batching capacity
        slo = 20e-3
        fixed = simulate(affine, FixedBatchPolicy(1), devices=("d",),
                         n_requests=2_000, arrival_rate=rate, seed=0)
        adaptive = simulate(affine, AdaptiveSLOPolicy(slo), devices=("d",),
                            n_requests=2_000, arrival_rate=rate, seed=0)
        assert fixed.p99_latency > slo
        assert adaptive.p99_latency <= slo
        assert adaptive.slo_attainment(slo) > 0.99 > fixed.slo_attainment(slo)


class TestFactory:
    def test_names(self):
        assert make_policy("fixed", batch_size=4).batch_size == 4
        assert make_policy("timeout", timeout=1e-3).timeout == 1e-3
        assert make_policy("adaptive", slo=0.1).slo == 0.1
        with pytest.raises(KeyError, match="unknown policy"):
            make_policy("lru")
