"""The classic entry points on the serving engine against the old simulator.

:func:`repro.serving.simulator._run_event_loop` runs the fleet engine on
one-replica groups, one per slot, and visits an arrival only while some
replica is idle; ``tests/serving/oracle.py`` keeps the classic simulator it
replaced, with the heap loop that visits every arrival, ``Request``
objects in per-tenant queues and the per-slot fault hooks. Both must
make the same decisions at the same instants, so every configuration
below must give repr-identical per-request timings, device stats, fault
stats and fine-tune stats. The last test pins why the engine skips
arrivals: on a saturated run, its heap work scales with its decisions,
not with its arrivals.
"""

import heapq
import itertools

import pytest

import repro.serving.simulator as simulator
from repro.serving import (
    AdaptiveSLOPolicy,
    DegradedMode,
    EarliestFinishRouter,
    FinetuneJob,
    FixedBatchPolicy,
    RetryPolicy,
    RoundRobinRouter,
    TenantSpec,
    TimeoutBatchPolicy,
    chaos_plan,
    make_tenants,
    simulate,
    simulate_mixed,
)
from repro.serving.policies import BatchingPolicy
from repro.workloads.registry import list_workloads
from tests.serving import oracle

DEVICES = ("a", "a", "b")
N = 600
RATE = 30_000.0  # ~2x the pool's capacity at these costs: queues build
HORIZON = N / RATE


def affine(k: int) -> float:
    return 1e-3 + 1e-4 * k


def slow(k: int) -> float:
    return 2e-3 + 3e-4 * k


POLICIES = {
    "fixed": lambda: FixedBatchPolicy(8),
    "timeout": lambda: TimeoutBatchPolicy(16, 2e-3),
    "adaptive": lambda: AdaptiveSLOPolicy(20e-3, max_batch=64),
}
CHAOS = (None, "single-failure", "rolling-restart", "thermal-brownout",
         "flaky-device")
ARRIVALS = ("poisson", "bursty", "closed")
ROUTERS = {"earliest-finish": EarliestFinishRouter, "round-robin": RoundRobinRouter}
RETRIES = {"retry": RetryPolicy(), "deadline": RetryPolicy(deadline=8e-3)}

# Every policy meets every chaos scenario; arrivals, router, retry policy
# and the degraded tenant rotate underneath so each value recurs.
CASES = [
    (policy, chaos, ARRIVALS[i % 3], list(ROUTERS)[i % 2], list(RETRIES)[i % 2],
     i % 4 >= 2)
    for i, (policy, chaos) in enumerate(itertools.product(POLICIES, CHAOS))
]


def observed(report) -> str:
    """Everything a run decides, as one string (NaN-safe equality)."""
    requests = [(r.index, r.dispatch, r.finish, r.device, r.batch_size,
                 r.formation_wait, r.retries, r.shed, r.degraded)
                for r in report.requests]
    return repr((requests, report.makespan, report.device_stats,
                 report.fault_stats, report.finetune_stats))


def both_loops(monkeypatch, run):
    """(engine run, oracle run) of the same call."""
    fast = run()
    with monkeypatch.context() as patched:
        patched.setattr(simulator, "_run_event_loop", oracle._run_event_loop)
        reference = run()
    return fast, reference


@pytest.mark.parametrize("policy, chaos, arrivals, router, retry, degraded", CASES)
def test_mixed_run_matches_oracle(monkeypatch, policy, chaos, arrivals, router,
                                  retry, degraded):
    def run():
        mode = DegradedMode("m", latency_factor=0.5, enter_wait=3e-3)
        tenants = [
            TenantSpec("x", affine, POLICIES[policy](), slo=20e-3, weight=2.0,
                       degraded=mode if degraded else None),
            TenantSpec("y", slow, POLICIES[policy](), slo=30e-3),
        ]
        plan = chaos_plan(chaos, DEVICES, HORIZON, seed=1) if chaos else None
        closed = arrivals == "closed"
        return simulate_mixed(
            tenants, devices=DEVICES, n_requests=N,
            arrival_rate=None if closed else RATE,
            scenario="bursty" if arrivals == "bursty" else "uniform",
            router=ROUTERS[router](), faults=plan, retry=RETRIES[retry],
            seed=2, lint=False)

    fast, reference = both_loops(monkeypatch, run)
    assert observed(fast) == observed(reference)
    # The case exercises what it names.
    stats = fast.fault_stats
    if chaos in ("single-failure", "rolling-restart"):
        assert stats.retries + stats.shed > 0
    if chaos == "flaky-device":
        assert any(d.stall_time > 0 for d in stats.devices.values())
    if retry == "deadline" and arrivals != "closed":
        assert stats.shed > 0
    if degraded:
        assert stats.tenants["x"].degraded_requests > 0


def test_single_tenant_simulate_matches_oracle(monkeypatch):
    def run():
        return simulate(affine, AdaptiveSLOPolicy(20e-3, max_batch=64),
                        devices=DEVICES, n_requests=N, arrival_rate=RATE,
                        seed=3)

    fast, reference = both_loops(monkeypatch, run)
    assert observed(fast) == observed(reference)


def test_stalls_on_idle_slots_match_oracle(monkeypatch):
    # Light load: the flaky slot is often idle when it stalls, so offers
    # must skip it until its stall-end event.
    def run():
        plan = chaos_plan("flaky-device", DEVICES, 20 * HORIZON, seed=6)
        return simulate(affine, FixedBatchPolicy(8), devices=DEVICES,
                        n_requests=N, arrival_rate=RATE / 20, seed=6,
                        faults=plan, retry=RetryPolicy())

    fast, reference = both_loops(monkeypatch, run)
    assert fast.fault_stats.devices["b"].stall_time > 0
    assert observed(fast) == observed(reference)


class QuorumPolicy(BatchingPolicy):
    """Dispatch exactly ``k`` once ``k`` are queued; hold with no wake-up.

    Only a new arrival can end its hold, so while it holds on an idle
    slot the loop must still schedule the next arrival, even with an
    otherwise empty heap.
    """

    name = "quorum"

    def __init__(self, k: int):
        self.k = k

    def decide(self, now, queue_len, oldest_wait, device, cost):
        return self.k if queue_len >= self.k else None


def test_hold_without_wakeup_waits_for_arrivals(monkeypatch):
    def run():
        # Light load: slots idle between arrivals, so holds meet an empty heap.
        return simulate(affine, QuorumPolicy(4), devices=DEVICES,
                        n_requests=N, arrival_rate=RATE / 20, seed=5)

    fast, reference = both_loops(monkeypatch, run)
    assert {r.batch_size for r in fast.requests} == {4}
    assert observed(fast) == observed(reference)


def test_finetune_mix_matches_oracle(monkeypatch):
    jobs = [FinetuneJob(name="bg", workload="avmnist", share=0.2, batch_size=2)]
    devices = ("2080ti", "nano")

    def run():
        tenants = [TenantSpec("x", affine, FixedBatchPolicy(8), slo=20e-3)]
        return simulate_mixed(
            tenants, devices=devices, n_requests=N, arrival_rate=RATE / 4,
            scenario="finetune", finetune=jobs,
            faults=chaos_plan("single-failure", devices, 4 * HORIZON, seed=0),
            seed=4, lint=False)

    fast, reference = both_loops(monkeypatch, run)
    assert fast.finetune_stats["bg"].steps_completed > 0
    assert observed(fast) == observed(reference)


def test_loop_work_scales_with_decisions_not_arrivals(monkeypatch):
    """A saturated serve-mixed-shaped run: 1,500 requests, nine tenants.

    The per-arrival loop pops ~1,550 events here for ~50 decisions; the
    engine pops one idle replica and one completion per batch, one entry
    per retry or wakeup, and the few arrivals that land on an idle slot.
    """
    devices = ("2080ti", "2080ti", "orin", "nano")
    n, rate = 1_500, 100_000.0
    tenants = make_tenants(list_workloads(),
                           policy_factory=lambda _w: AdaptiveSLOPolicy(50e-3),
                           slo=50e-3)
    plan = chaos_plan("single-failure", devices, n / rate, seed=3)
    pops = 0
    heappop = heapq.heappop

    def counting_heappop(heap):
        nonlocal pops
        pops += 1
        return heappop(heap)

    monkeypatch.setattr(heapq, "heappop", counting_heappop)
    report = simulate_mixed(tenants, devices=devices, n_requests=n,
                            arrival_rate=rate, scenario="heavy-head",
                            faults=plan, retry=RetryPolicy(), seed=3)
    monkeypatch.undo()
    batches = sum(d.batches for d in report.device_stats.values())
    stats = report.fault_stats
    assert stats.completed == n
    assert pops <= 4 * (batches + stats.retries + stats.plan_events)
