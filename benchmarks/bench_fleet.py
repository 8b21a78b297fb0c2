"""Benchmark: ten million requests across a hundred-replica fleet.

Measures the acceptance scenario of the fleet-scale serving layer
(:mod:`repro.serving.fleet`): all nine registry workloads served as
tenants of three homogeneous device groups — 64x 2080ti, 32x orin,
16x nano — under a saturating open stream. The group-level event loop
(bulk arrival absorption, per-group replica free times with a heap of
idle replicas, dense latency tables, a completion heap, and per-request
timing filled in one vectorized pass over the batch log after the loop) is what
makes this tractable. The gate here is
>= 10x the classic simulator's original recorded rate: 253,987 simulated
req/s, ``BENCH_serving_mix.json`` as first recorded. That floor is a
fixed number: the classic entry points now run this same engine (one
replica per slot), so there is no second engine to take a ratio against.

Batching is throughput-oriented (fixed 512 per tenant): this bench
saturates the fleet to measure *engine capacity*; the adaptive policy's
SLO search dynamics are covered by ``bench_serving_mix.py``.

Run from the repo root::

    python benchmarks/bench_fleet.py [--n-requests 10000000] [-o FILE]

Emits ``BENCH_fleet.json``::

    {
      "n_requests": 10000000,
      "groups": "2080ti:64,orin:32,nano:16",
      "wall_s": ...,
      "simulated_req_per_s": ...,
      "groups_detail": {"2080ti": {"replicas": 64, ...}, ...},
      "tenants": {"avmnist": {"requests": ..., ...}, ...}
    }

Exits non-zero if the simulation exceeds ``--budget`` seconds, falls
below ``--floor`` simulated requests per second (the CI regression gate
against reintroducing per-event scans or per-request scatters on the
hot path), or drops requests (completions must be conserved).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.serving import FixedBatchPolicy, make_tenants, parse_groups, simulate_fleet
from repro.serving.scenarios import scenario_columns
from repro.workloads.registry import list_workloads

GROUPS = "2080ti:64,orin:32,nano:16"
SLO = 50e-3
BATCH = 512


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-requests", type=int, default=10_000_000)
    parser.add_argument("--arrival-rate", type=float, default=10_000_000.0)
    parser.add_argument("--scenario", default="heavy-head")
    parser.add_argument("--groups", default=GROUPS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=float, default=9.0,
                        help="maximum acceptable simulation wall time in "
                             "seconds (CI regression gate)")
    parser.add_argument("--floor", type=float, default=2_539_870.0,
                        help="minimum acceptable simulated req/s — 10x the "
                             "classic simulator's original recorded rate "
                             "(253,987 req/s)")
    parser.add_argument("-o", "--output", default="BENCH_fleet.json")
    args = parser.parse_args(argv)

    groups = parse_groups(args.groups)
    tenants = make_tenants(
        list_workloads(),
        policy_factory=lambda _w: FixedBatchPolicy(BATCH),
        slo=SLO, seed=args.seed,
    )
    # Warm every tenant's anchor curves for every group device so the
    # timed section measures the event loop, not lazy cost-model fills.
    for spec in tenants:
        for group in groups:
            spec.cost.latency(group.device, 1)
    # One small untimed run warms the allocator and the dense latency
    # tables (first-touch page faults otherwise dominate a cold run).
    simulate_fleet(tenants, groups, n_requests=100_000,
                   arrival_rate=args.arrival_rate, scenario=args.scenario,
                   seed=args.seed)

    t0 = time.perf_counter()
    columns = scenario_columns(args.scenario, tenants, args.n_requests,
                               arrival_rate=args.arrival_rate, seed=args.seed)
    generate_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    report = simulate_fleet(tenants, groups, columns=columns,
                            arrival_rate=args.arrival_rate, seed=args.seed)
    wall_s = time.perf_counter() - t0
    rate = report.n_requests / wall_s

    replicas = sum(g.replicas for g in groups)
    print(f"{args.scenario}: {report.n_requests:,} requests over "
          f"{len(tenants)} tenants on {len(groups)} groups / "
          f"{replicas} replicas")
    print(f"arrivals generated in {generate_s:.2f}s, "
          f"simulated in {wall_s:.2f}s ({rate:,.0f} req/s of simulation)")
    groups_detail = {}
    for name, stats in report.group_stats.items():
        groups_detail[name] = {
            "replicas": stats.replicas,
            "batches": stats.batches,
            "requests": stats.requests,
            "mean_batch": round(stats.mean_batch, 1),
            "utilization": round(stats.utilization, 4),
        }
        print(f"{name:>14}: {stats.replicas:>3} replicas   "
              f"{stats.requests:>10,} requests   "
              f"mean batch {stats.mean_batch:6.1f}   "
              f"util {stats.utilization:.0%}")
    per_tenant = {
        name: {
            "requests": stats.n_requests,
            "p99_latency_s": stats.p99_latency,
            "slo_attainment": stats.slo_attainment,
        }
        for name, stats in report.tenant_stats.items()
    }

    payload = {
        "bench": "fleet",
        "n_requests": report.n_requests,
        "scenario": args.scenario,
        "arrival_rate": args.arrival_rate,
        "groups": args.groups,
        "replicas": replicas,
        "slo_s": SLO,
        "batch": BATCH,
        "generate_s": round(generate_s, 3),
        "wall_s": round(wall_s, 3),
        "simulated_req_per_s": round(rate),
        "makespan_s": report.makespan,
        "groups_detail": groups_detail,
        "tenants": per_tenant,
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")

    if report.completed != args.n_requests:
        print(f"FAIL: {report.completed:,} of {args.n_requests:,} requests "
              "completed (conservation broken)")
        return 1
    if wall_s > args.budget:
        print(f"FAIL: 10M-request fleet simulation took {wall_s:.1f}s "
              f"(budget {args.budget:.0f}s)")
        return 1
    if rate < args.floor:
        print(f"FAIL: {rate:,.0f} simulated req/s is below the "
              f"{args.floor:,.0f} floor (10x the classic simulator's "
              "original recorded rate)")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
