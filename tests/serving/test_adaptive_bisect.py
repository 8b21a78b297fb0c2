"""The adaptive policy's largest-batch search: one bisection of the dense
latency curve instead of a binary search over ``latency`` probes.

``_GroupCost.largest_within`` must find, on every non-decreasing curve
and under every factor the adapter applies (the fine-tuning slowdown, a
throttle, a degraded mode, both), exactly the batch size the probe loop
finds, and must decline wherever the loop is the only defined search: a
curve that steps down, or a cap past the end of the table.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.serving import AdaptiveSLOPolicy, costmodel, scenarios
from repro.serving.costmodel import AnchoredCostModel
from repro.serving.fleet import (_DegradableCost, _GroupCost, parse_autoscale,
                                 parse_groups, simulate_fleet)
from repro.workloads.registry import list_workloads


class TableCostModel(AnchoredCostModel):
    """Every k in 1..len(table) is an anchor, so ``curve()`` is ``table``."""

    def __init__(self, table):
        super().__init__(tuple(range(1, len(table) + 1)))
        self.times = np.array(table, dtype=np.float64)

    def _price_anchors(self, device):
        return self.times


class ProbesOnly:
    """Hides ``largest_within``, so the policy runs its probe loop."""

    def __init__(self, cost):
        self.latency = cost.latency


def adapter(table, scale, throttle, extra):
    cost = TableCostModel(table)
    throttles = {} if throttle is None else {"2080ti": throttle}
    if extra is None:
        return _GroupCost(cost, None, throttles, scale)
    group = _DegradableCost(cost, None, throttles, scale)
    group.extra = extra
    return group


def budgets(group, hi):
    """Every latency up to ``hi`` and its float neighbours, plus budgets
    below latency(1) and past latency(hi)."""
    out = [0.0, group.latency("2080ti", hi) * 2]
    for k in range(1, hi + 1):
        t = group.latency("2080ti", k)
        out += [t, math.nextafter(t, 0.0), math.nextafter(t, math.inf)]
    return out


@st.composite
def sorted_tables(draw):
    """Non-decreasing tables with ties and flat runs."""
    start = draw(st.floats(1e-6, 1e-2))
    steps = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-9, 1e-3)),
                          max_size=48))
    table = [start]
    for step in steps:
        table.append(table[-1] + step)
    return table


FACTORS = st.tuples(
    st.one_of(st.just(1.0), st.floats(1.0, 4.0)),                # slowdown
    st.one_of(st.none(), st.floats(0.1, 10.0)),                  # throttle
    st.one_of(st.none(), st.just(1.0), st.floats(0.05, 1.0)),    # degraded
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sorted_tables(), FACTORS, st.data())
def test_bisection_equals_the_probe_loop(table, factors, data):
    group = adapter(table, *factors)
    assert group.underlying.monotone("2080ti")
    hi = data.draw(st.integers(1, len(table)))
    policy = AdaptiveSLOPolicy(slo=1.0, max_batch=hi)
    for budget in budgets(group, hi):
        k = group.largest_within("2080ti", hi, budget)
        assert k is not None
        assert k == policy._largest_within("2080ti", ProbesOnly(group), budget)
        assert k == policy._largest_within("2080ti", group, budget)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sorted_tables(), FACTORS, st.data())
def test_search_past_the_table_or_down_a_step_falls_back(table, factors, data):
    # A cap past the table's end: only latency() extrapolates there.
    group = adapter(table, *factors)
    hi = len(table) + data.draw(st.integers(1, 64))
    assert group.largest_within("2080ti", hi, 1.0) is None
    policy = AdaptiveSLOPolicy(slo=1.0, max_batch=hi)
    for budget in budgets(group, hi)[::7]:
        assert (policy._largest_within("2080ti", group, budget)
                == policy._largest_within("2080ti", ProbesOnly(group), budget))

    # One step down anywhere: the table is no longer bisectable.
    if len(table) < 2:
        return
    at = data.draw(st.integers(1, len(table) - 1))
    stepped = list(table)
    stepped[at] = math.nextafter(stepped[at - 1], 0.0)
    group = adapter(stepped, *factors)
    assert not group.underlying.monotone("2080ti")
    hi = data.draw(st.integers(1, len(stepped)))
    assert group.largest_within("2080ti", hi, stepped[-1]) is None
    policy = AdaptiveSLOPolicy(slo=1.0, max_batch=hi)
    for budget in budgets(group, hi)[::5]:
        assert (policy._largest_within("2080ti", group, budget)
                == policy._largest_within("2080ti", ProbesOnly(group), budget))


def test_the_flag_is_checked_when_the_curve_is_built():
    assert costmodel.is_non_decreasing(np.array([1.0, 1.0, 2.0]))
    assert costmodel.is_non_decreasing(np.array([3.0]))
    assert not costmodel.is_non_decreasing(np.array([1.0, 0.5]))
    assert not costmodel.is_non_decreasing(np.array([1.0, math.nan, 2.0]))
    falling = TableCostModel([2.0, 1.0])
    assert not falling.monotone("2080ti") and falling.monotone("nano") is False


class TestServeFleetShape:
    """The perfbench serve-fleet command: nine adaptive tenants on three
    autoscaled groups, diurnal traffic, 1 MB hops."""

    @staticmethod
    def serve(seed):
        tenants = scenarios.make_tenants(
            list_workloads(), policy_factory=lambda _w: AdaptiveSLOPolicy(50e-3),
            slo=50e-3)
        return simulate_fleet(
            tenants, parse_groups("2080ti:48:64,orin:24:32,nano:8:16"),
            n_requests=10_000, arrival_rate=2_000_000.0, scenario="diurnal",
            autoscale=parse_autoscale("queue:64:0.001:0.005"), hop_bytes=1e6,
            seed=seed)

    @pytest.mark.parametrize("seed", [3, 7])
    def test_latency_calls_per_batch(self, monkeypatch, seed):
        calls = []
        latency = _GroupCost.latency

        def counted(self, label, batch_size):
            calls.append(batch_size)
            return latency(self, label, batch_size)

        self.serve(seed)  # fill the curves outside the count
        monkeypatch.setattr(_GroupCost, "latency", counted)
        report = self.serve(seed)
        batches = sum(g.batches for g in report.group_stats.values())
        # The probe loop made ~11.9 calls per batch; the bisection leaves
        # the hold check, the dispatch and the router's ranking.
        assert batches > 150
        assert len(calls) <= 4 * batches

    def test_fresh_tenants_recompute_no_curve_flag(self, monkeypatch):
        self.serve(3)
        checks = []
        check = costmodel.is_non_decreasing
        monkeypatch.setattr(costmodel, "is_non_decreasing",
                            lambda table: checks.append(1) or check(table))
        self.serve(3)
        assert checks == []
