"""Benchmark: million-request chaos scenarios vs fault-free serving.

Measures what the fault-injection subsystem costs on the event-loop hot
path: the same nine-tenant, four-device mixed-serving run as
``bench_serving_mix.py`` is simulated fault-free, then under the
``single-failure`` and ``thermal-brownout`` chaos scenarios (with retry
accounting and the conservation invariant checked at every event). Each
run serves the named traffic scenario through
``simulate_mixed(scenario=..., n_requests=..., seed=...)``. The baseline
and the two scenarios are timed in turn, three times each, and the gate
fails if either scenario's median overhead over its round's baseline run
exceeds ``--overhead`` (default 25%) — the fault branches must stay off
the fast path when nothing is failing and cheap when something is.

Run from the repo root::

    python benchmarks/bench_faults.py [--n-requests 1000000] [-o FILE]

Emits ``BENCH_faults.json``::

    {
      "n_requests": 1000000,
      "baseline_wall_s": ...,            # median over the rounds
      "baseline_runs_s": [...],
      "scenarios": {
        "single-failure": {"wall_s": ..., "overhead": ..., "runs_s": [...],
                           "overheads": [...], "shed": ..., ...},
        "thermal-brownout": {...}
      }
    }
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import time
from pathlib import Path

from repro.serving import (
    AdaptiveSLOPolicy,
    RetryPolicy,
    chaos_plan,
    make_tenants,
    simulate_mixed,
)
from repro.workloads.registry import list_workloads

DEVICES = ("2080ti", "2080ti", "orin", "nano")
SLO = 50e-3
SCENARIOS = ("single-failure", "thermal-brownout")
BASELINE = "fault-free"
ROUNDS = 3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-requests", type=int, default=1_000_000)
    parser.add_argument("--arrival-rate", type=float, default=100_000.0)
    parser.add_argument("--scenario", default="heavy-head",
                        help="traffic scenario the chaos plans run against")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--overhead", type=float, default=0.25,
                        help="maximum acceptable median faulted wall-time "
                             "overhead over the fault-free baseline (CI gate)")
    parser.add_argument("-o", "--output", default="BENCH_faults.json")
    args = parser.parse_args(argv)

    tenants = make_tenants(
        list_workloads(),
        policy_factory=lambda _w: AdaptiveSLOPolicy(SLO),
        slo=SLO, seed=args.seed,
    )
    for spec in tenants:  # warm anchor curves out of the timed section
        for device in set(DEVICES):
            spec.cost.latency(device, 1)
    horizon = args.n_requests / args.arrival_rate
    plans = {BASELINE: None, **{name: chaos_plan(name, DEVICES, horizon, seed=args.seed)
                                for name in SCENARIOS}}

    def timed(plan):
        # Each run's report is dropped before the next run is timed, and the
        # collector runs outside the timed sections: a live 1M-request
        # report otherwise adds its objects to every collection the next
        # run makes.
        gc.collect()
        t0 = time.perf_counter()
        report = simulate_mixed(tenants, devices=DEVICES, n_requests=args.n_requests,
                                arrival_rate=args.arrival_rate, scenario=args.scenario,
                                seed=args.seed, faults=plan,
                                retry=None if plan is None else RetryPolicy())
        return time.perf_counter() - t0, report.n_requests, report.fault_stats

    # The baseline and each scenario are timed in turn, ROUNDS times, and
    # a faulted run's overhead is taken against its own round's baseline:
    # host speed drifts by more than the gate between one run and the next.
    walls = {name: [] for name in plans}
    stats = {}
    for _ in range(ROUNDS):
        for name, plan in plans.items():
            wall_s, n_requests, stats[name] = timed(plan)
            walls[name].append(wall_s)
    baseline_s = statistics.median(walls[BASELINE])
    print(f"fault-free baseline: {n_requests:,} requests in {baseline_s:.2f}s "
          f"median of {ROUNDS} ({n_requests / baseline_s:,.0f} req/s)")

    failed = False
    per_scenario = {}
    for name in SCENARIOS:
        fs = stats[name]
        overheads = [w / b - 1.0 for w, b in zip(walls[name], walls[BASELINE])]
        overhead = statistics.median(overheads)
        per_scenario[name] = {
            "wall_s": round(statistics.median(walls[name]), 3),
            "overhead": round(overhead, 4),
            "runs_s": [round(w, 3) for w in walls[name]],
            "overheads": [round(o, 4) for o in overheads],
            "plan_events": fs.plan_events,
            "completed": fs.completed,
            "shed": fs.shed,
            "retries": fs.retries,
            "total_downtime_s": round(fs.total_downtime, 4),
        }
        print(f"{name}: {per_scenario[name]['wall_s']:.2f}s ({overhead:+.1%} median "
              f"vs baseline; runs {', '.join(f'{o:+.1%}' for o in overheads)}), "
              f"{fs.retries:,} retries, {fs.shed:,} shed, "
              f"{fs.total_downtime:.2f}s downtime")
        if fs.completed + fs.shed != fs.issued:
            print(f"FAIL: {name} lost requests "
                  f"({fs.completed} + {fs.shed} != {fs.issued})")
            failed = True
        if overhead > args.overhead:
            print(f"FAIL: {name} median overhead {overhead:.1%} exceeds "
                  f"{args.overhead:.0%} gate")
            failed = True

    payload = {
        "bench": "faults",
        "n_requests": n_requests,
        "traffic_scenario": args.scenario,
        "arrival_rate": args.arrival_rate,
        "devices": list(DEVICES),
        "rounds": ROUNDS,
        "baseline_wall_s": round(baseline_s, 3),
        "baseline_runs_s": [round(w, 3) for w in walls[BASELINE]],
        "overhead_gate": args.overhead,
        "scenarios": per_scenario,
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
