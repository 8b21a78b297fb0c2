"""Benchmark: traced training-step capture + vectorized pricing.

Two sections:

1. **Per-workload training steps** — for each registry workload, capture
   one full traced training step (forward + loss + backward + optimizer)
   on the meta backend at batch 32 and price it on the 2080Ti with the
   vectorized engine; report capture/pricing wall time (the model is
   built before the capture timer starts), kernel counts and the traced
   train/forward FLOP ratio. On ``medical_seg`` the eager
   capture is also timed and the meta speedup gated (``--floor``): the
   shape-only backward must stay an order of magnitude faster than dense
   eager backward, or training sweeps lose their scalability.
2. **Batch-size sweep** — ``training_batch_sweep`` over
   (1, 8, 32, 128) x (2080ti, orin, nano), one ``run_sweep`` pass per
   batch, wall-time gated by ``--budget``.

Run from the repo root::

    python benchmarks/bench_training.py [--floor 10] [--budget 120] [-o FILE]

Emits ``BENCH_training.json``.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

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


def bench_workload(store: TraceStore, name: str) -> dict:
    # A meta capture reuses the store's memoized model: build it untimed,
    # so meta_capture_s is the traced step alone.
    store.model(name)
    t0 = time.perf_counter()
    stored = store.get_or_capture_training(name, batch_size=BATCH, backend="meta")
    capture_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    [report] = price_stored(stored, ["2080ti"], params=training_memory_factor("adam"))
    pass_time = report.pass_time()
    price_s = time.perf_counter() - t0

    return {
        "kernels": stored.trace.columns().n,
        "meta_capture_s": round(capture_s, 6),
        "price_s": round(price_s, 6),
        "step_time_s": report.total_time,
        "flops_ratio": round(traced_training_flops_ratio(stored.trace), 4),
        "backward_share": round(
            pass_time.get("backward", 0.0) / max(sum(pass_time.values()), 1e-12), 4),
    }


def bench_eager_gate(floor: float) -> dict:
    info = get_workload(EAGER_GATE_WORKLOAD)
    t0 = time.perf_counter()
    trace_training_step(info.build(seed=0), batch_size=BATCH, backend="eager")
    eager_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    meta = trace_training_step(info.build(seed=0), batch_size=BATCH, backend="meta")
    meta_s = time.perf_counter() - t0
    speedup = eager_s / meta_s if meta_s > 0 else float("inf")
    return {
        "workload": EAGER_GATE_WORKLOAD,
        "batch_size": BATCH,
        "kernels": meta.columns().n,
        "eager_s": round(eager_s, 4),
        "meta_s": round(meta_s, 4),
        "speedup": round(speedup, 1),
        "floor": floor,
        "ok": speedup >= floor,
    }


def bench_sweep(store: TraceStore) -> dict:
    t0 = time.perf_counter()
    grid = training_batch_sweep("avmnist", batches=SWEEP_BATCHES,
                                devices=SWEEP_DEVICES, store=store)
    wall = time.perf_counter() - t0
    return {
        "workload": "avmnist",
        "cells": len(grid),
        "wall_s": round(wall, 4),
        "step_times": {f"b{b}@{d}": round(cell.total_time, 6)
                       for (b, d), cell in grid.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--floor", type=float, default=10.0,
                        help="minimum meta-over-eager training-capture speedup")
    parser.add_argument("--budget", type=float, default=None,
                        help="maximum total wall seconds (CI gate)")
    parser.add_argument("-o", "--output", default="BENCH_training.json")
    args = parser.parse_args()

    t_start = time.perf_counter()
    store = TraceStore()
    workloads = {name: bench_workload(store, name) for name in list_workloads()}
    gate = bench_eager_gate(args.floor)
    sweep = bench_sweep(store)
    total_wall = time.perf_counter() - t_start

    ratios = [w["flops_ratio"] for w in workloads.values()]
    result = {
        "batch_size": BATCH,
        "workloads": workloads,
        "flops_ratio_range": [min(ratios), max(ratios)],
        "eager_gate": gate,
        "sweep": sweep,
        "total_wall_s": round(total_wall, 3),
    }
    Path(args.output).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))

    if not gate["ok"]:
        print(f"FAIL: meta training capture speedup {gate['speedup']}x "
              f"under floor {args.floor}x")
        return 1
    if not all(2.0 < r < 4.0 for r in ratios):
        print(f"FAIL: traced flops ratio out of [2, 4]: {ratios}")
        return 1
    if args.budget is not None and total_wall > args.budget:
        print(f"FAIL: wall {total_wall:.1f}s over budget {args.budget}s")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
