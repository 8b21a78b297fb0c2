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

    python benchmarks/bench_serving_mix.py [--n-requests 1000000] [-o FILE]

Emits ``BENCH_serving_mix.json``::

    {
      "n_requests": 1000000,
      "scenario": "heavy-head",
      "devices": ["2080ti", "2080ti", "orin", "nano"],
      "wall_s": ...,
      "simulated_req_per_s": ...,
      "tenants": {"avmnist": {"requests": ..., "slo_attainment": ...}, ...}
    }

Exits non-zero if the simulation exceeds ``--budget`` seconds (the CI
regression gate against reintroducing per-request Python overheads on the
event-loop hot path) or if any tenant's SLO attainment collapses.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.serving import AdaptiveSLOPolicy, make_tenants, scenario_columns, simulate_mixed
from repro.workloads.registry import list_workloads

DEVICES = ("2080ti", "2080ti", "orin", "nano")
SLO = 50e-3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-requests", type=int, default=1_000_000)
    parser.add_argument("--arrival-rate", type=float, default=100_000.0)
    parser.add_argument("--scenario", default="heavy-head")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=float, default=90.0,
                        help="maximum acceptable simulation wall time in "
                             "seconds (CI regression gate)")
    parser.add_argument("-o", "--output", default="BENCH_serving_mix.json")
    args = parser.parse_args(argv)

    tenants = make_tenants(
        list_workloads(),
        policy_factory=lambda _w: AdaptiveSLOPolicy(SLO),
        slo=SLO, seed=args.seed,
    )
    # Warm every tenant's anchor curves for every device so the timed
    # section measures the event loop, not lazy cost-model fills.
    for spec in tenants:
        for device in set(DEVICES):
            spec.cost.latency(device, 1)

    t0 = time.perf_counter()
    scenario_columns(args.scenario, tenants, args.n_requests,
                     arrival_rate=args.arrival_rate, seed=args.seed)
    generate_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    report = simulate_mixed(tenants, devices=DEVICES, n_requests=args.n_requests,
                            arrival_rate=args.arrival_rate,
                            scenario=args.scenario, seed=args.seed)
    wall_s = time.perf_counter() - t0

    print(f"{args.scenario}: {report.n_requests:,} requests over "
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
        "bench": "serving_mix",
        "n_requests": report.n_requests,
        "scenario": args.scenario,
        "arrival_rate": args.arrival_rate,
        "devices": list(DEVICES),
        "slo_s": SLO,
        "generate_s": round(generate_s, 3),
        "wall_s": round(wall_s, 3),
        "simulated_req_per_s": round(report.n_requests / wall_s),
        "makespan_s": report.makespan,
        "tenants": per_tenant,
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")

    if wall_s > args.budget:
        print(f"FAIL: 1M-request mixed simulation took {wall_s:.1f}s "
              f"(budget {args.budget:.0f}s)")
        return 1
    worst = min(s.slo_attainment for s in report.tenant_stats.values())
    if worst < 0.5:
        print(f"FAIL: a tenant's SLO attainment collapsed to {worst:.1%}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
