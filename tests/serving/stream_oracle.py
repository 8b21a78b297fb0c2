"""The scenario stream generator as it drew before its fast paths: the
differential oracle of :func:`repro.serving.scenarios.scenario_columns`.

:func:`diurnal` is the thinning loop that tested every candidate of each
1.5x-oversized chunk with a float64 cosine, and :func:`scenario_columns`
draws tenant codes with ``Generator.choice(p=...)``. The production
generator decides only the candidates it needs, behind a float32 filter,
and draws codes as an inverse CDF; ``test_stream_oracle.py`` requires
both streams to be equal bit for bit.

Keep this copy frozen: it is a specification, not shared code.
"""

from __future__ import annotations

import numpy as np

from repro.serving.request import RequestColumns, sort_request_columns
from repro.serving.scenarios import get_scenario

_DIURNAL_AMPLITUDE = 0.8
_DIURNAL_CYCLES = 2.0


def diurnal(n: int, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Nonhomogeneous Poisson with a sinusoidal rate, by thinning whole
    chunks of candidates."""
    period = (n / rate) / _DIURNAL_CYCLES
    peak = rate * (1.0 + _DIURNAL_AMPLITUDE)
    out = np.empty(n)
    accepted = 0
    t = 0.0
    while accepted < n:
        chunk = max(int(1.5 * (n - accepted) * (peak / rate)), 64)
        candidates = t + np.cumsum(rng.exponential(1.0 / peak, size=chunk))
        instantaneous = rate * (
            1.0 - _DIURNAL_AMPLITUDE * np.cos(2.0 * np.pi * candidates / period)
        )
        kept = candidates[rng.random(chunk) * peak < instantaneous]
        take = min(kept.size, n - accepted)
        out[accepted:accepted + take] = kept[:take]
        accepted += take
        t = float(candidates[-1])
    return out


def scenario_columns(scenario: str, tenants, n_requests: int,
                     arrival_rate: float | None, seed: int) -> RequestColumns:
    """A scenario's stream for a valid request: codes by ``rng.choice``,
    then arrivals (diurnal ones by :func:`diurnal`)."""
    spec = get_scenario(scenario)
    names = tuple(t.name for t in tenants)
    if n_requests == 0:
        return RequestColumns(np.empty(0), np.empty(0, dtype=np.int64), names)
    rng = np.random.default_rng(seed)
    codes = rng.choice(len(tenants), size=n_requests, p=spec.tenant_probs(tenants))
    arrivals = (diurnal if scenario == "diurnal" else spec.arrivals)(
        n_requests, arrival_rate, rng)
    return sort_request_columns(arrivals, codes, names)
