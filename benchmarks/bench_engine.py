"""Benchmark: vectorized columnar pricing vs the scalar reference engine.

Measures the tentpole of the columnar execution path: for each registry
workload it captures one meta-backend trace at batch 64, prices it with
the scalar reference engine (the twin in ``tests/hw/reference.py``, one
Python call chain per kernel event) and with the vectorized
:class:`~repro.hw.engine.ExecutionEngine` (numpy over
:class:`~repro.trace.columns.TraceColumns`), checks the two totals agree
to 1e-9, and reports the speedup. A second section times the one-pass
grid sweep (:func:`repro.profiling.profiler.price_grid` /
``ExecutionEngine.run_sweep``) against the equivalent scalar per-cell
loop over (workloads x batch sizes x devices).

Run from the repo root::

    python benchmarks/bench_engine.py [-o FILE]

Emits ``BENCH_engine.json``::

    {
      "batch_size": 64,
      "workloads": {"avmnist": {"scalar_s": ..., "vectorized_s": ..., "speedup": ...}, ...},
      "largest_workload": {"name": ..., "speedup": ...},
      "grid": {"cells": ..., "scalar_s": ..., "vectorized_s": ..., "speedup": ...}
    }

Exits non-zero if the single-trace speedup on the largest workload drops
below ``FLOOR`` (the CI regression gate against reintroducing per-event
Python loops on the pricing path; local runs report well above it).
"""

from __future__ import annotations

import sys
from pathlib import Path

from harness import best_of, run

# The scalar twin is a test module: put the repo root (and its sources) on
# the path so the script runs from a checkout.
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.hw.device import get_device  # noqa: E402
from repro.hw.engine import ExecutionEngine  # noqa: E402
from repro.profiling.profiler import price_grid  # noqa: E402
from repro.trace.store import TraceStore  # noqa: E402
from repro.workloads.registry import list_workloads  # noqa: E402
from tests.hw.reference import ScalarExecutionEngine  # noqa: E402

BATCH_SIZE = 64
REPEATS = 5
FLOOR = 20.0
GRID_DEVICES = ("2080ti", "orin", "nano")
GRID_BATCHES = (1, 8, 64)


def bench_workload(store: TraceStore, name: str) -> dict:
    stored = store.get_or_capture(name, batch_size=BATCH_SIZE, backend="meta")
    trace = stored.trace
    device = get_device("2080ti")
    kwargs = dict(model_bytes=stored.parameter_bytes, input_bytes=stored.input_bytes)

    trace.columns()  # columns are built once per trace; price with them warm

    def vectorized_full():
        # Counters and stalls are lazy on the vectorized report; force them
        # so both paths price the complete report (apples-to-apples).
        report = ExecutionEngine(device).run(trace, **kwargs)
        report.counter_columns
        report.stall_shares
        return report

    scalar_s, scalar_report = best_of(
        REPEATS, lambda: ScalarExecutionEngine(device).run(trace, **kwargs))
    vector_s, vector_report = best_of(REPEATS, vectorized_full)

    rel = abs(vector_report.total_time - scalar_report.total_time)
    rel /= max(abs(scalar_report.total_time), 1e-300)
    if rel > 1e-9:
        raise AssertionError(f"{name}: vectorized/scalar pricing diverged ({rel:.2e})")

    return {
        "scalar_s": round(scalar_s, 6),
        "vectorized_s": round(vector_s, 6),
        "speedup": round(scalar_s / vector_s, 2),
        "kernels": trace.columns().n,
        "total_time_s": scalar_report.total_time,
    }


def bench_grid(store: TraceStore, workloads: list[str]) -> dict:
    """One-pass grid sweep vs the equivalent scalar per-cell loop."""

    def vectorized():
        return price_grid(workloads, GRID_BATCHES, GRID_DEVICES,
                          backend="meta", store=store)

    def scalar():
        out = {}
        for name in workloads:
            for batch in GRID_BATCHES:
                stored = store.get_or_capture(name, batch_size=batch, backend="meta")
                for dev in GRID_DEVICES:
                    out[(name, batch, dev)] = ScalarExecutionEngine(get_device(dev)).run(
                        stored.trace,
                        model_bytes=stored.parameter_bytes,
                        input_bytes=stored.input_bytes,
                    )
        return out

    vectorized()  # warm the trace store so both paths time pricing only
    vector_s, grid = best_of(REPEATS, vectorized)
    scalar_s, ref = best_of(1, scalar)

    for key, cell in grid.items():
        rel = abs(cell.total_time - ref[key].total_time)
        rel /= max(abs(ref[key].total_time), 1e-300)
        if rel > 1e-9:
            raise AssertionError(f"grid cell {key}: pricing diverged ({rel:.2e})")

    return {
        "cells": len(grid),
        "devices": list(GRID_DEVICES),
        "batch_sizes": list(GRID_BATCHES),
        "scalar_s": round(scalar_s, 6),
        "vectorized_s": round(vector_s, 6),
        "speedup": round(scalar_s / vector_s, 2),
    }


def bench() -> tuple[dict, list]:
    store = TraceStore()
    results: dict[str, dict] = {}
    for name in list_workloads():
        results[name] = bench_workload(store, name)
        r = results[name]
        print(f"{name:>14}: scalar {r['scalar_s'] * 1e3:8.2f} ms   "
              f"vectorized {r['vectorized_s'] * 1e3:7.3f} ms   "
              f"{r['speedup']:7.1f}x   ({r['kernels']} kernels)")

    largest = max(results, key=lambda n: results[n]["scalar_s"])
    print(f"largest workload by scalar pricing time: {largest} "
          f"({results[largest]['speedup']:.1f}x vectorized speedup)")

    grid = bench_grid(store, list_workloads())
    print(f"grid sweep ({grid['cells']} cells, {len(GRID_DEVICES)} devices): "
          f"scalar {grid['scalar_s'] * 1e3:.1f} ms vs vectorized "
          f"{grid['vectorized_s'] * 1e3:.1f} ms ({grid['speedup']:.1f}x)")

    payload = {
        "batch_size": BATCH_SIZE,
        "repeats": REPEATS,
        "workloads": results,
        "largest_workload": {"name": largest, "speedup": results[largest]["speedup"]},
        "grid": grid,
    }
    gates = [(results[largest]["speedup"] >= FLOOR,
              f"vectorized speedup on the largest workload is below {FLOOR:.0f}x")]
    return payload, gates


if __name__ == "__main__":
    raise SystemExit(run("engine", bench))
