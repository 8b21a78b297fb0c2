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
exceeds ``OVERHEAD`` (25%) or if a scenario loses a request (completed +
shed must equal issued) — the fault branches must stay off the fast path
when nothing is failing and cheap when something is. Seven local runs on
a 2-vCPU VM (2026-10) read single-failure -34.0% to +11.7% and
thermal-brownout -28.0% to -6.6% over 0.56-0.81 s baselines: a faulted
run keeps constant-size batch records and builds no request table unless
it is read.

Run from the repo root::

    python benchmarks/bench_faults.py [-o FILE]

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

import gc
import statistics

from bench_serving_mix import (
    ARRIVAL_RATE,
    DEVICES,
    N_REQUESTS,
    SCENARIO,
    SEED,
    SLO,
    warm_tenants,
)
from harness import best_of, run

from repro.serving import AdaptiveSLOPolicy, RetryPolicy, chaos_plan, simulate_mixed

SCENARIOS = ("single-failure", "thermal-brownout")
BASELINE = "fault-free"
ROUNDS = 3
OVERHEAD = 0.25


def bench() -> tuple[dict, list]:
    tenants = warm_tenants(lambda _w: AdaptiveSLOPolicy(SLO), DEVICES)
    horizon = N_REQUESTS / ARRIVAL_RATE
    plans = {BASELINE: None, **{name: chaos_plan(name, DEVICES, horizon, seed=SEED)
                                for name in SCENARIOS}}

    def timed(plan):
        # Each run's report is dropped before the next run is timed, and the
        # collector runs outside the timed sections: a live 1M-request
        # report otherwise adds its objects to every collection the next
        # run makes.
        gc.collect()
        wall_s, report = best_of(1, lambda: simulate_mixed(
            tenants, devices=DEVICES, n_requests=N_REQUESTS, arrival_rate=ARRIVAL_RATE,
            scenario=SCENARIO, seed=SEED, faults=plan,
            retry=None if plan is None else RetryPolicy()))
        return wall_s, report.n_requests, report.fault_stats

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

    gates = []
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
        gates += [
            (fs.completed + fs.shed == fs.issued,
             f"{name} lost requests ({fs.completed} + {fs.shed} != {fs.issued})"),
            (overhead <= OVERHEAD,
             f"{name} median overhead {overhead:.1%} exceeds {OVERHEAD:.0%} gate"),
        ]

    payload = {
        "n_requests": n_requests,
        "traffic_scenario": SCENARIO,
        "arrival_rate": ARRIVAL_RATE,
        "devices": list(DEVICES),
        "rounds": ROUNDS,
        "baseline_wall_s": round(baseline_s, 3),
        "baseline_runs_s": [round(w, 3) for w in walls[BASELINE]],
        "overhead_gate": OVERHEAD,
        "scenarios": per_scenario,
    }
    return payload, gates


if __name__ == "__main__":
    raise SystemExit(run("faults", bench))
