"""The scenario generator draws exactly the streams it drew before its
fast paths (:mod:`tests.serving.stream_oracle`): tenant codes by an
inverse CDF instead of ``Generator.choice``, and diurnal arrivals thinned
prefix by prefix behind a float32 filter."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import scenarios
from repro.serving.policies import FixedBatchPolicy
from repro.serving.simulator import TenantSpec
from tests.serving import stream_oracle

SIZES = (0, 1, 5, 63, 64, 1_500, 10_000)
RATES = (1e-3, 1.0, 2e6, 1e7)
SEEDS = range(20)
# (n, seed) diurnal streams whose first chunk keeps fewer than n
# candidates, so they thin a second chunk (found by search).
SECOND_CHUNK = ((21, 1018), (24, 333), (30, 341), (33, 434))


def tenants(k: int) -> list[TenantSpec]:
    return [TenantSpec(f"t{i}", lambda b: 1e-4 * b, FixedBatchPolicy(8),
                       weight=float(1 + i % 3)) for i in range(k)]


def assert_same_stream(scenario, specs, n, rate, seed):
    got = scenarios.scenario_columns(scenario, specs, n, rate, seed)
    # scenario_columns does not sort: every generator must emit order.
    assert not np.any(np.diff(got.arrivals) < 0), (scenario, n, rate, seed)
    want = stream_oracle.scenario_columns(scenario, specs, n, rate, seed)
    assert got.codes.dtype == want.codes.dtype
    assert np.array_equal(got.codes, want.codes), (scenario, n, rate, seed)
    assert np.array_equal(got.arrivals, want.arrivals), (scenario, n, rate, seed)


@pytest.mark.parametrize("scenario", scenarios.SCENARIO_NAMES)
def test_streams_equal_the_oracle(scenario):
    for seed in SEEDS:
        specs = tenants((1, 2, 3, 9)[seed % 4])
        for n in SIZES:
            for rate in RATES:
                assert_same_stream(scenario, specs, n, rate, seed)
            if not scenarios.get_scenario(scenario).needs_rate:
                assert_same_stream(scenario, specs, n, None, seed)


def test_second_chunks_equal_the_oracle(monkeypatch):
    calls = []
    thin = scenarios._thin
    monkeypatch.setattr(scenarios, "_thin",
                        lambda *args: calls.append(1) or thin(*args))
    for n, seed in SECOND_CHUNK:
        calls.clear()
        assert_same_stream("diurnal", tenants(3), n, 1e3, seed)
        assert len(calls) > 1, (n, seed)


def test_any_prefix_size_gives_the_same_stream(monkeypatch):
    # Prefixes of a few candidates put every boundary case (the carried
    # sum, the last candidate of a prefix, a chunk's end) in every run.
    monkeypatch.setattr(scenarios, "_PREFIX_SLACK", 0.05)
    monkeypatch.setattr(scenarios, "_PREFIX_PAD", 1)
    for seed in range(6):
        for n in (*SIZES, *(n for n, _ in SECOND_CHUNK)):
            for rate in (1e-3, 2e6):
                assert_same_stream("diurnal", tenants(2), n, rate, seed)


def test_codes_of_many_tenants_and_overflowing_weights():
    many = np.full(300, 1 / 300)  # counts past a uint8
    want = np.random.default_rng(1).choice(300, size=1_000, p=many)
    got = scenarios._tenant_codes(many, 1_000, np.random.default_rng(1))
    assert np.array_equal(got, want)
    # Finite weights that sum to inf normalize to zeros, which choice
    # refused; so does the inverse CDF.
    huge = [TenantSpec(f"t{i}", lambda b: 1e-4 * b, FixedBatchPolicy(8),
                       weight=1e308) for i in range(2)]
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="sum to 1"):
        scenarios.scenario_columns("uniform", huge, 10, 1e3, 0)


@pytest.mark.parametrize("n, rate", [(10_000, 2e6), (1, 2e6), (5, 1e-3)])
def test_thinning_decides_threshold_draws_like_float64(n, rate):
    """Draws at the float64 threshold and one ulp either side: the float32
    filter must hand every one of them to the float64 expression. Small n
    puts candidates hundreds of radians out, where the float32 argument
    alone is off by up to ~3e-5."""
    period = (n / rate) / scenarios._DIURNAL_CYCLES
    peak = rate * (1.0 + scenarios._DIURNAL_AMPLITUDE)
    cycles = 8.0 if n > 100 else 80.0  # x up to ~50 or ~500 rad
    times = np.sort(np.random.default_rng(n).uniform(0.0, cycles * period, 2_000))
    candidates = np.repeat(times, 3)
    instantaneous = rate * (1.0 - scenarios._DIURNAL_AMPLITUDE
                            * np.cos(2.0 * np.pi * candidates / period))
    # Each time's three copies draw one ulp below, at and one ulp above
    # instantaneous / peak.
    draws = instantaneous / peak
    draws[0::3] = np.nextafter(draws[0::3], 0.0)
    draws[2::3] = np.nextafter(draws[2::3], 1.0)
    draws = np.minimum(draws, np.nextafter(1.0, 0.0))  # a draw is < 1
    want = draws * peak < instantaneous
    assert 0.2 < want.mean() < 0.8
    got = scenarios._thin(candidates, draws, rate, peak, period)
    assert np.array_equal(got, want)
