"""Named multi-tenant traffic scenarios for the serving simulator.

A scenario answers two questions about a workload mix: *which tenant does
each request belong to* (the mix shape) and *when do requests arrive*
(the arrival process). The library covers the traffic patterns a
production fleet actually sees:

================  ============================  ==============================
scenario          mix shape                     arrival process
================  ============================  ==============================
``uniform``       tenant weights as given       homogeneous Poisson (or closed)
``heavy-head``    Zipf over the tenant order    homogeneous Poisson (or closed)
``diurnal``       tenant weights as given       sinusoidal rate ramp (thinned
                                                Poisson, two cycles per run)
``bursty``        tenant weights as given       on/off bursts: 8x-rate bursts
                                                of ~64 requests, idle gaps
                                                restoring the mean rate
================  ============================  ==============================

Every generator is vectorized (a million-request mix costs milliseconds)
and deterministic in ``seed``. ``arrival_rate=None`` degrades ``uniform``
and ``heavy-head`` to the paper's closed setting (all requests at t=0);
the time-varying scenarios require a rate.

Orthogonal to the traffic mixes, this module also re-exports the named
**chaos scenarios** from :mod:`repro.serving.faults` — device-fault
timelines that compose with any traffic mix via
``simulate_mixed(faults=chaos_plan(name, devices, horizon))``:

==================  =========================================================
chaos scenario      fault shape
==================  =========================================================
``single-failure``  the first (fastest) slot dies at 25% of the run,
                    recovers at 60%
``rolling-restart``  every slot restarts once, staggered so the pool never
                    fully drains
``thermal-brownout``  every device throttles 2.5x through the middle half
                    of the run
``flaky-device``    the last slot flaps down/up eight times with jittered
                    transient stalls between
==================  =========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.serving.faults import CHAOS_SCENARIO_NAMES, CHAOS_SCENARIOS, chaos_plan
from repro.serving.request import Request, RequestColumns, is_finite_number
from repro.serving.simulator import TenantSpec

__all__ = [
    "CHAOS_SCENARIO_NAMES",
    "CHAOS_SCENARIOS",
    "SCENARIO_NAMES",
    "SCENARIOS",
    "Scenario",
    "chaos_plan",
    "get_scenario",
    "make_tenants",
    "scenario_columns",
    "scenario_requests",
]

# Shape knobs, fixed so scenario names mean the same thing everywhere.
_ZIPF_EXPONENT = 1.0  # heavy-head: weight_i ~ 1 / rank^s
_DIURNAL_AMPLITUDE = 0.8  # rate swings between 0.2x and 1.8x the mean
_DIURNAL_CYCLES = 2.0  # full day-night cycles per simulated run
_BURST_FACTOR = 8.0  # in-burst rate relative to the mean rate
_MEAN_BURST = 64.0  # mean requests per burst

# Diurnal thinning tests candidates in prefixes of this many times the
# expected remaining need, plus a pad; any sizes give the same stream.
_PREFIX_SLACK = 1.1
_PREFIX_PAD = 64


def _weight_probs(tenants: Sequence[TenantSpec]) -> np.ndarray:
    weights = np.array([spec.weight for spec in tenants], dtype=np.float64)
    return weights / weights.sum()


def _zipf_probs(tenants: Sequence[TenantSpec]) -> np.ndarray:
    ranks = np.arange(1, len(tenants) + 1, dtype=np.float64)
    weights = _weight_probs(tenants) * ranks ** -_ZIPF_EXPONENT
    return weights / weights.sum()


def _tenant_codes(probs: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """``rng.choice(len(probs), size=n, p=probs)``, draw for draw: the
    inverse CDF that ``choice`` finds with a ``searchsorted``, here as one
    comparison per tenant boundary (``u < 1 == cdf[-1]`` never passes
    the last), O(n * K) and cheaper for the few tenants of a mix.
    ``probs`` are positive and finite (``TenantSpec`` checks the
    weights), so only their sum needs ``choice``'s check: finite weights
    can still sum past the float range."""
    cdf = probs.cumsum()
    if not abs(cdf[-1] - 1.0) <= 2.0 ** -26:  # choice's tolerance, sqrt(eps)
        raise ValueError("probabilities do not sum to 1")
    cdf /= cdf[-1]
    u = rng.random(n)
    codes = np.zeros(n, dtype=np.min_scalar_type(cdf.size - 1))
    for bound in cdf[:-1].tolist():
        codes += u >= bound
    return codes.astype(np.int64)


def _poisson(n: int, rate: float | None, rng: np.random.Generator) -> np.ndarray:
    if rate is None:
        return np.zeros(n)
    return np.cumsum(rng.exponential(1.0 / rate, size=n))


def _thin(candidates: np.ndarray, draws: np.ndarray, rate: float,
          peak: float, period: float) -> np.ndarray:
    """Which ascending candidates the diurnal thinning keeps: exactly
    ``draws * peak < rate * (1 - amp * cos(2 pi candidates / period))``,
    the float64 expression, for every element.

    Most candidates are decided by a float32 cosine. Its argument is
    within ``|x| * 2**-24`` of the float64 one and numpy's float32 cosine
    within 1.5 ulp (< ``2**-23``) of the true value, so it lies within
    ``margin`` of the float64 cosine (the largest ``|x|`` of an ascending
    segment is at one of its ends; both terms carry 2x to 8x headroom,
    which also covers the float64 expression's own rounding). A
    candidate whose keep threshold, in cosine terms, lies within
    ``margin`` of the float32 cosine (or that has no float32 cosine) is
    decided again by the float64 expression.
    """
    x = 2.0 * np.pi * candidates
    x /= period
    margin = max(-float(x[0]), float(x[-1])) * 2.0 ** -23 + 2.0 ** -20
    # Keep iff the cosine lies below 1/amp - draws * peak / (rate * amp).
    gap = draws * (-peak / (rate * _DIURNAL_AMPLITUDE))
    gap += 1.0 / _DIURNAL_AMPLITUDE
    gap -= np.cos(x.astype(np.float32))
    keep = gap > margin
    close = np.flatnonzero(~(np.abs(gap, out=gap) > margin))
    if close.size:
        keep[close] = draws[close] * peak < rate * (
            1.0 - _DIURNAL_AMPLITUDE * np.cos(x[close]))
    return keep


def _diurnal(n: int, rate: float | None, rng: np.random.Generator) -> np.ndarray:
    """Nonhomogeneous Poisson with a sinusoidal rate, by thinning.

    The mean rate is ``rate``; the instantaneous rate ramps between
    ``(1 - amp)`` and ``(1 + amp)`` times that over ``_DIURNAL_CYCLES``
    cycles of the run's expected span, starting at the trough (ramp up,
    peak, ramp down — a day of traffic in miniature).

    Candidates come in chunks of ~1.5x the expected need, but only the
    chunk's prefix up to the last acceptance the stream keeps is summed
    and tested, ~1.1x the remaining need at a time (the first prefix
    almost always suffices). Each prefix's cumulative sum carries on
    from the previous prefix's last sum, so every candidate and decision
    is the one a whole-chunk pass computes.
    """
    period = (n / rate) / _DIURNAL_CYCLES
    peak = rate * (1.0 + _DIURNAL_AMPLITUDE)
    out = np.empty(n)
    accepted = 0
    t = 0.0
    while accepted < n:
        chunk = max(int(1.5 * (n - accepted) * (peak / rate)), 64)
        sums = rng.exponential(1.0 / peak, size=chunk)
        draws = rng.random(chunk)
        start = 0
        while start < chunk and accepted < n:
            stop = min(chunk, start + _PREFIX_PAD
                       + int(_PREFIX_SLACK * (n - accepted) * (peak / rate)))
            prefix = sums[start:stop]
            if start:
                prefix[0] += sums[start - 1]
            np.cumsum(prefix, out=prefix)
            candidates = t + prefix
            kept = candidates.compress(
                _thin(candidates, draws[start:stop], rate, peak, period))
            take = min(kept.size, n - accepted)
            out[accepted:accepted + take] = kept[:take]
            accepted += take
            start = stop
        t = float(candidates[-1])
    return out


def _bursty(n: int, rate: float | None, rng: np.random.Generator) -> np.ndarray:
    """On/off bursts: short in-burst gaps, long idle gaps between bursts.

    Each request independently starts a new burst with probability
    ``1 / _MEAN_BURST`` (geometric burst sizes); in-burst interarrivals
    run at ``_BURST_FACTOR`` times the mean rate and the off gaps are
    sized so the long-run mean rate stays ``rate``.
    """
    burst_rate = _BURST_FACTOR * rate
    gaps = rng.exponential(1.0 / burst_rate, size=n)
    starts = rng.random(n) < 1.0 / _MEAN_BURST
    starts[0] = False  # the stream opens mid-burst at t ~ 0
    off_mean = _MEAN_BURST * (1.0 / rate - 1.0 / burst_rate)
    gaps = gaps + np.where(starts, rng.exponential(off_mean, size=n), 0.0)
    return np.cumsum(gaps)


@dataclass(frozen=True)
class Scenario:
    """A named traffic mix: tenant-share shape + arrival process."""

    name: str
    description: str
    tenant_probs: Callable[[Sequence[TenantSpec]], np.ndarray]
    arrivals: Callable[[int, float | None, np.random.Generator], np.ndarray]
    needs_rate: bool = False


SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario("uniform", "tenant weights as given, Poisson arrivals",
                 _weight_probs, _poisson),
        Scenario("heavy-head", "Zipf-skewed mix (first tenant dominates)",
                 _zipf_probs, _poisson),
        Scenario("diurnal", "sinusoidal day/night rate ramp",
                 _weight_probs, _diurnal, needs_rate=True),
        Scenario("bursty", "on/off bursts at 8x the mean rate",
                 _weight_probs, _bursty, needs_rate=True),
        # The inference traffic itself is uniform Poisson; what makes the
        # scenario is the background fine-tuning jobs holding stream
        # shares of every device (built by make_finetune_jobs and passed
        # to simulate_mixed(finetune=...); the CLI's --mix finetune path
        # does both).
        Scenario("finetune", "uniform traffic + background fine-tuning jobs",
                 _weight_probs, _poisson),
    )
}

SCENARIO_NAMES: tuple[str, ...] = tuple(SCENARIOS)


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {SCENARIO_NAMES}") from None


def scenario_columns(
    scenario: str,
    tenants: Sequence[TenantSpec],
    n_requests: int,
    arrival_rate: float | None = None,
    seed: int = 0,
) -> RequestColumns:
    """Generate a scenario's request stream as columnar arrays.

    This is the fast path: the serving engine consumes the columns
    directly. Every generator emits cumulative sums of non-negative gaps
    (diurnal keeps an ascending subset), so the stream is never sorted;
    ``sort_request_columns`` is for streams a caller builds.
    :func:`scenario_requests` materializes the same
    stream as ``Request`` objects, e.g. to replay through
    ``simulate_mixed(requests=...)``.
    """
    if n_requests < 0:
        raise ValueError(f"n_requests must be non-negative, got {n_requests}")
    if not tenants:
        raise ValueError("need at least one tenant")
    spec = get_scenario(scenario)
    if spec.needs_rate and arrival_rate is None:
        raise ValueError(f"scenario {scenario!r} needs an arrival rate "
                         "(its traffic shape is time-varying)")
    if arrival_rate is not None and (not is_finite_number(arrival_rate)
                                     or arrival_rate <= 0):
        raise ValueError(f"arrival_rate must be positive and finite, "
                         f"got {arrival_rate!r}")
    names = [t.name for t in tenants]
    if n_requests == 0:
        return RequestColumns(np.empty(0), np.empty(0, dtype=np.int64), tuple(names))
    rng = np.random.default_rng(seed)
    codes = _tenant_codes(spec.tenant_probs(tenants), n_requests, rng)
    arrivals = spec.arrivals(n_requests, arrival_rate, rng)
    return RequestColumns(arrivals, codes, names)


def scenario_requests(
    scenario: str,
    tenants: Sequence[TenantSpec],
    n_requests: int,
    arrival_rate: float | None = None,
    seed: int = 0,
) -> list[Request]:
    """Generate the tagged, arrival-sorted request stream of a scenario."""
    return scenario_columns(
        scenario, tenants, n_requests, arrival_rate=arrival_rate, seed=seed,
    ).to_requests()


def make_tenants(
    workloads: Sequence[str],
    policy_factory: Callable[[str], "object"] | None = None,
    slo: float | None = 50e-3,
    weights: Sequence[float] | None = None,
    seed: int = 0,
    backend: str = "meta",
) -> list[TenantSpec]:
    """Build one profiled :class:`TenantSpec` per registry workload.

    ``policy_factory(workload)`` supplies each tenant's batching policy
    (default: an SLO-adaptive policy at ``slo``); every tenant gets its
    own :class:`~repro.serving.costmodel.ProfiledCostModel`, so placement
    and batching decisions see that workload's latency curves.
    """
    from repro.serving.costmodel import ProfiledCostModel
    from repro.serving.policies import AdaptiveSLOPolicy

    if weights is not None and len(weights) != len(workloads):
        raise ValueError("weights must be parallel to workloads")
    if policy_factory is None:
        if slo is None:
            raise ValueError("default adaptive policies need an slo")
        policy_factory = lambda _w: AdaptiveSLOPolicy(slo)  # noqa: E731
    return [
        TenantSpec(
            name=workload,
            cost=ProfiledCostModel(workload, seed=seed, backend=backend),
            policy=policy_factory(workload),
            slo=slo,
            weight=1.0 if weights is None else float(weights[i]),
        )
        for i, workload in enumerate(workloads)
    ]
