"""Benchmark: traced training-step capture + vectorized pricing.

Two sections:

1. **Per-workload training steps** — for each registry workload, capture
   one full traced training step (forward + loss + backward + optimizer)
   on the meta backend at batch 32 and price it on the 2080Ti with the
   vectorized engine; report capture/pricing wall time (the model is
   built before the capture timer starts), kernel counts and the traced
   train/forward FLOP ratio. On ``medical_seg`` the eager
   capture is also timed and the meta speedup gated (``FLOOR``): the
   shape-only backward must stay an order of magnitude faster than dense
   eager backward, or training sweeps lose their scalability.
2. **Batch-size sweep** — ``training_batch_sweep`` over
   (1, 8, 32, 128) x (2080ti, orin, nano), one ``run_sweep`` pass per
   batch.

Every traced train/forward FLOP ratio must lie in (2, 4), and the whole
run is wall-time gated by ``BUDGET_S``. Local runs finish in ~1-1.3 s
with a ~60-140x capture speedup.

Run from the repo root::

    python benchmarks/bench_training.py [-o FILE]

Emits ``BENCH_training.json``.
"""

from __future__ import annotations

import json

from harness import best_of, run

from repro.core.analysis.training import training_batch_sweep
from repro.profiling.profiler import price_stored
from repro.profiling.training import (
    trace_training_step,
    traced_training_flops_ratio,
    training_memory_factor,
)
from repro.trace.store import TraceStore
from repro.workloads.registry import get_workload, list_workloads

BATCH = 32
SWEEP_BATCHES = (1, 8, 32, 128)
SWEEP_DEVICES = ("2080ti", "orin", "nano")
EAGER_GATE_WORKLOAD = "medical_seg"
FLOOR = 10.0
BUDGET_S = 120.0


def bench_workload(store: TraceStore, name: str) -> dict:
    # A meta capture reuses the store's memoized model: build it untimed,
    # so meta_capture_s is the traced step alone.
    store.model(name)
    capture_s, stored = best_of(1, lambda: store.get_or_capture_training(
        name, batch_size=BATCH, backend="meta"))

    def price():
        [report] = price_stored(stored, ["2080ti"], params=training_memory_factor("adam"))
        return report, report.pass_time()

    price_s, (report, pass_time) = best_of(1, price)

    return {
        "kernels": stored.trace.columns().n,
        "meta_capture_s": round(capture_s, 6),
        "price_s": round(price_s, 6),
        "step_time_s": report.total_time,
        "flops_ratio": round(traced_training_flops_ratio(stored.trace), 4),
        "backward_share": round(
            pass_time.get("backward", 0.0) / max(sum(pass_time.values()), 1e-12), 4),
    }


def bench_eager_gate() -> dict:
    info = get_workload(EAGER_GATE_WORKLOAD)
    eager_s, _ = best_of(1, lambda: trace_training_step(
        info.build(seed=0), batch_size=BATCH, backend="eager"))
    meta_s, meta = best_of(1, lambda: trace_training_step(
        info.build(seed=0), batch_size=BATCH, backend="meta"))
    speedup = eager_s / meta_s if meta_s > 0 else float("inf")
    return {
        "workload": EAGER_GATE_WORKLOAD,
        "batch_size": BATCH,
        "kernels": meta.columns().n,
        "eager_s": round(eager_s, 4),
        "meta_s": round(meta_s, 4),
        "speedup": round(speedup, 1),
        "floor": FLOOR,
        "ok": speedup >= FLOOR,
    }


def bench_sweep(store: TraceStore) -> dict:
    wall, grid = best_of(1, lambda: training_batch_sweep(
        "avmnist", batches=SWEEP_BATCHES, devices=SWEEP_DEVICES, store=store))
    return {
        "workload": "avmnist",
        "cells": len(grid),
        "wall_s": round(wall, 4),
        "step_times": {f"b{b}@{d}": round(cell.total_time, 6)
                       for (b, d), cell in grid.items()},
    }


def bench() -> tuple[dict, list]:
    store = TraceStore()
    workloads = {name: bench_workload(store, name) for name in list_workloads()}
    gate = bench_eager_gate()
    sweep = bench_sweep(store)

    ratios = [w["flops_ratio"] for w in workloads.values()]
    payload = {
        "batch_size": BATCH,
        "workloads": workloads,
        "flops_ratio_range": [min(ratios), max(ratios)],
        "eager_gate": gate,
        "sweep": sweep,
    }
    print(json.dumps(payload, indent=2))
    gates = [
        (gate["ok"], f"meta training capture speedup {gate['speedup']}x "
                     f"under floor {FLOOR}x"),
        (all(2.0 < r < 4.0 for r in ratios), f"traced flops ratio out of [2, 4]: {ratios}"),
    ]
    return payload, gates


if __name__ == "__main__":
    raise SystemExit(run("training", bench, budget_s=BUDGET_S))
