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

    python benchmarks/bench_fleet.py [-o FILE]

Emits ``BENCH_fleet.json``::

    {
      "n_requests": 10000000,
      "groups": "2080ti:64,orin:32,nano:16",
      "wall_s": ...,
      "simulated_req_per_s": ...,
      "groups_detail": {"2080ti": {"replicas": 64, ...}, ...},
      "tenants": {"avmnist": {"requests": ..., ...}, ...}
    }

Exits non-zero if the simulation exceeds ``BUDGET_S`` seconds, falls
below ``FLOOR`` simulated requests per second (the CI regression gate
against reintroducing per-event scans or per-request scatters on the hot
path), or drops requests (completions must be conserved). The floor
alone bounds the 10M-request simulation to 3.9 s; a 2-vCPU VM lands
~10-13.5M req/s in ~0.75-0.95 s, after ~0.25-0.4 s generating the stream.
"""

from __future__ import annotations

from bench_serving_mix import SCENARIO, SEED, SLO, warm_tenants
from harness import best_of, run

from repro.serving import FixedBatchPolicy, parse_groups, simulate_fleet
from repro.serving.scenarios import scenario_columns

GROUPS = "2080ti:64,orin:32,nano:16"
BATCH = 512
N_REQUESTS = 10_000_000
ARRIVAL_RATE = 10_000_000.0
BUDGET_S = 9.0
FLOOR = 2_539_870.0


def bench() -> tuple[dict, list]:
    groups = parse_groups(GROUPS)
    tenants = warm_tenants(lambda _w: FixedBatchPolicy(BATCH),
                           [group.device for group in groups])
    # One small untimed run warms the allocator and the dense latency
    # tables (first-touch page faults otherwise dominate a cold run).
    simulate_fleet(tenants, groups, n_requests=100_000,
                   arrival_rate=ARRIVAL_RATE, scenario=SCENARIO, seed=SEED)

    generate_s, columns = best_of(1, lambda: scenario_columns(
        SCENARIO, tenants, N_REQUESTS, arrival_rate=ARRIVAL_RATE, seed=SEED))
    wall_s, report = best_of(1, lambda: simulate_fleet(
        tenants, groups, columns=columns, arrival_rate=ARRIVAL_RATE, seed=SEED))
    rate = report.n_requests / wall_s

    replicas = sum(g.replicas for g in groups)
    print(f"{SCENARIO}: {report.n_requests:,} requests over "
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
        "n_requests": report.n_requests,
        "scenario": SCENARIO,
        "arrival_rate": ARRIVAL_RATE,
        "groups": GROUPS,
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
    gates = [
        (report.completed == N_REQUESTS,
         f"{report.completed:,} of {N_REQUESTS:,} requests completed "
         "(conservation broken)"),
        (wall_s <= BUDGET_S,
         f"10M-request fleet simulation took {wall_s:.1f}s (budget {BUDGET_S:.0f}s)"),
        (rate >= FLOOR,
         f"{rate:,.0f} simulated req/s is below the {FLOOR:,.0f} floor "
         "(10x the classic simulator's original recorded rate)"),
    ]
    return payload, gates


if __name__ == "__main__":
    raise SystemExit(run("fleet", bench))
