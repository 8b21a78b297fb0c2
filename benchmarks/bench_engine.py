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

    python benchmarks/bench_engine.py [--batch-size 64] [-o FILE]

Emits ``BENCH_engine.json``::

    {
      "batch_size": 64,
      "workloads": {"avmnist": {"scalar_s": ..., "vectorized_s": ..., "speedup": ...}, ...},
      "largest_workload": {"name": ..., "speedup": ...},
      "grid": {"cells": ..., "scalar_s": ..., "vectorized_s": ..., "speedup": ...}
    }

Exits non-zero if the single-trace speedup on the largest workload drops
below ``--floor`` (the CI regression gate against reintroducing per-event
Python loops on the pricing path).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

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

GRID_DEVICES = ("2080ti", "orin", "nano")
GRID_BATCHES = (1, 8, 64)


def _best_of(n: int, fn):
    """Minimum wall time of ``n`` runs (standard noise suppression)."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return min(times), out


def bench_workload(store: TraceStore, name: str, batch_size: int, repeats: int) -> dict:
    stored = store.get_or_capture(name, batch_size=batch_size, backend="meta")
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

    scalar_s, scalar_report = _best_of(
        repeats, lambda: ScalarExecutionEngine(device).run(trace, **kwargs))
    vector_s, vector_report = _best_of(repeats, vectorized_full)

    rel = abs(vector_report.total_time - scalar_report.total_time)
    rel /= max(abs(scalar_report.total_time), 1e-300)
    if rel > 1e-9:
        raise AssertionError(f"{name}: vectorized/scalar pricing diverged ({rel:.2e})")

    return {
        "scalar_s": round(scalar_s, 6),
        "vectorized_s": round(vector_s, 6),
        "speedup": round(scalar_s / vector_s, 2),
        "kernels": len(trace.kernels),
        "total_time_s": scalar_report.total_time,
    }


def bench_grid(store: TraceStore, workloads: list[str], repeats: int) -> dict:
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
    vector_s, grid = _best_of(repeats, vectorized)
    scalar_s, ref = _best_of(1, scalar)

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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--floor", type=float, default=20.0,
                        help="minimum acceptable single-trace speedup on the "
                             "largest workload (CI regression gate)")
    parser.add_argument("-o", "--output", default="BENCH_engine.json")
    args = parser.parse_args(argv)

    store = TraceStore()
    results: dict[str, dict] = {}
    for name in list_workloads():
        results[name] = bench_workload(store, name, args.batch_size, args.repeats)
        r = results[name]
        print(f"{name:>14}: scalar {r['scalar_s'] * 1e3:8.2f} ms   "
              f"vectorized {r['vectorized_s'] * 1e3:7.3f} ms   "
              f"{r['speedup']:7.1f}x   ({r['kernels']} kernels)")

    largest = max(results, key=lambda n: results[n]["scalar_s"])
    print(f"largest workload by scalar pricing time: {largest} "
          f"({results[largest]['speedup']:.1f}x vectorized speedup)")

    grid = bench_grid(store, list_workloads(), args.repeats)
    print(f"grid sweep ({grid['cells']} cells, {len(GRID_DEVICES)} devices): "
          f"scalar {grid['scalar_s'] * 1e3:.1f} ms vs vectorized "
          f"{grid['vectorized_s'] * 1e3:.1f} ms ({grid['speedup']:.1f}x)")

    payload = {
        "bench": "engine",
        "batch_size": args.batch_size,
        "repeats": args.repeats,
        "workloads": results,
        "largest_workload": {"name": largest, "speedup": results[largest]["speedup"]},
        "grid": grid,
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")

    if results[largest]["speedup"] < args.floor:
        print(f"FAIL: vectorized speedup on the largest workload is below "
              f"{args.floor:.0f}x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
