"""Benchmark: a million-request multi-tenant mixed-serving simulation.

Measures the acceptance scenario of the multi-tenant serving layer: all
nine registry workloads served concurrently as tenants of one fleet of
heterogeneous devices, traffic drawn from a named scenario
(:mod:`repro.serving.scenarios`), per-tenant SLO attainment reported.
Because batch compute comes from memoized profiled cost models, the
simulated fleet chews through a million requests in seconds of wall time.

``generate_s`` times :func:`~repro.serving.scenarios.scenario_columns`,
the columnar stream the engine consumes. ``wall_s`` times
``simulate_mixed(scenario=..., n_requests=..., seed=...)``, the path
``mmbench serve --mix`` takes, which generates the same stream again
inside it.

Run from the repo root::

    python benchmarks/bench_serving_mix.py [-o FILE]

Emits ``BENCH_serving_mix.json``::

    {
      "n_requests": 1000000,
      "scenario": "heavy-head",
      "devices": ["2080ti", "2080ti", "orin", "nano"],
      "wall_s": ...,
      "simulated_req_per_s": ...,
      "tenants": {"avmnist": {"requests": ..., "slo_attainment": ...}, ...}
    }

Exits non-zero if the simulation exceeds ``BUDGET_S`` seconds (the CI
regression gate against reintroducing per-request Python overheads on the
event-loop hot path; local runs generate the 1M-request columns in
~0.05-0.07 s and simulate them, generation included, in ~0.24-0.28 s)
or if any tenant's SLO attainment collapses.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from harness import best_of, run

from repro.serving import (
    AdaptiveSLOPolicy,
    BatchingPolicy,
    TenantSpec,
    make_tenants,
    scenario_columns,
    simulate_mixed,
)
from repro.workloads.registry import list_workloads

DEVICES = ("2080ti", "2080ti", "orin", "nano")
SLO = 50e-3
N_REQUESTS = 1_000_000
ARRIVAL_RATE = 100_000.0
SCENARIO = "heavy-head"
SEED = 0
BUDGET_S = 90.0


def warm_tenants(policy_factory: Callable[[str], BatchingPolicy],
                 devices: Iterable[str]) -> list[TenantSpec]:
    """The nine registry workloads as tenants, each with its own policy
    from ``policy_factory``, with every tenant's anchor curve warmed on
    every device so a timed section measures the event loop, not lazy
    cost-model fills."""
    tenants = make_tenants(list_workloads(), policy_factory=policy_factory,
                           slo=SLO, seed=SEED)
    for spec in tenants:
        for device in set(devices):
            spec.cost.latency(device, 1)
    return tenants


def bench() -> tuple[dict, list]:
    tenants = warm_tenants(lambda _w: AdaptiveSLOPolicy(SLO), DEVICES)

    generate_s, _ = best_of(1, lambda: scenario_columns(
        SCENARIO, tenants, N_REQUESTS, arrival_rate=ARRIVAL_RATE, seed=SEED))
    wall_s, report = best_of(1, lambda: simulate_mixed(
        tenants, devices=DEVICES, n_requests=N_REQUESTS, arrival_rate=ARRIVAL_RATE,
        scenario=SCENARIO, seed=SEED))

    print(f"{SCENARIO}: {report.n_requests:,} requests over "
          f"{len(tenants)} tenants on {len(DEVICES)} devices")
    print(f"arrivals generated in {generate_s:.2f}s, "
          f"simulated in {wall_s:.2f}s "
          f"({report.n_requests / wall_s:,.0f} req/s of simulation)")
    per_tenant = {}
    for name, stats in report.tenant_stats.items():
        per_tenant[name] = {
            "requests": stats.n_requests,
            "p99_latency_s": stats.p99_latency,
            "slo_attainment": stats.slo_attainment,
        }
        print(f"{name:>14}: {stats.n_requests:>8,} requests   "
              f"p99 {stats.p99_latency * 1e3:7.2f} ms   "
              f"SLO<= {SLO * 1e3:.0f}ms {stats.slo_attainment:.2%}")

    payload = {
        "n_requests": report.n_requests,
        "scenario": SCENARIO,
        "arrival_rate": ARRIVAL_RATE,
        "devices": list(DEVICES),
        "slo_s": SLO,
        "generate_s": round(generate_s, 3),
        "wall_s": round(wall_s, 3),
        "simulated_req_per_s": round(report.n_requests / wall_s),
        "makespan_s": report.makespan,
        "tenants": per_tenant,
    }
    worst = min(s.slo_attainment for s in report.tenant_stats.values())
    gates = [
        (wall_s <= BUDGET_S, f"1M-request mixed simulation took {wall_s:.1f}s "
                             f"(budget {BUDGET_S:.0f}s)"),
        (worst >= 0.5, f"a tenant's SLO attainment collapsed to {worst:.1%}"),
    ]
    return payload, gates


if __name__ == "__main__":
    raise SystemExit(run("serving_mix", bench))
