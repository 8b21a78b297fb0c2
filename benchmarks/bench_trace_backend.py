"""Benchmark: eager vs meta trace capture, and warm trace-store hits.

Seeds the performance trajectory for the meta execution backend. For each
of the nine registry workloads it times one traced inference capture on
the eager (dense numpy) backend and on the meta (shape-only) backend,
checks the two traces agree on event count and total FLOPs, then times a
warm :class:`~repro.trace.store.TraceStore` hit to show a cached key
skips tracing entirely.

Run from the repo root::

    python benchmarks/bench_trace_backend.py [-o FILE]

Emits ``BENCH_trace_backend.json``::

    {
      "batch_size": 64,
      "workloads": {"avmnist": {"eager_s": ..., "meta_s": ..., "speedup": ...}, ...},
      "largest_workload": {"name": ..., "speedup": ...},
      "warm_store": {"capture_s": ..., "warm_hit_s": ..., "speedup": ...}
    }

Exits non-zero if the meta speedup on the largest workload drops below
``FLOOR``.
"""

from __future__ import annotations

from harness import best_of, run

from repro.data.synthetic import random_batch
from repro.profiling.profiler import MMBenchProfiler
from repro.trace.store import TraceStore
from repro.workloads.registry import get_workload, list_workloads

BATCH_SIZE = 64
REPEATS = 3
FLOOR = 10.0


def bench_workload(name: str) -> dict:
    model = get_workload(name).build(seed=0)
    profiler = MMBenchProfiler()
    eager_batch = random_batch(model.shapes, BATCH_SIZE, seed=0)
    meta_batch = random_batch(model.shapes, BATCH_SIZE, seed=0, backend="meta")

    eager_s, eager_trace = best_of(REPEATS, lambda: profiler.capture(model, eager_batch))
    meta_s, meta_trace = best_of(REPEATS, lambda: profiler.capture(model, meta_batch))

    if meta_trace.columns().n != eager_trace.columns().n:
        raise AssertionError(f"{name}: event count diverged")
    if meta_trace.total_flops != eager_trace.total_flops:
        raise AssertionError(f"{name}: FLOP totals diverged")

    return {
        "eager_s": round(eager_s, 6),
        "meta_s": round(meta_s, 6),
        "speedup": round(eager_s / meta_s, 2),
        "kernels": eager_trace.columns().n,
        "total_flops": eager_trace.total_flops,
    }


def bench_warm_store(workload: str) -> dict:
    store = TraceStore()

    def capture():
        return store.get_or_capture(workload, batch_size=BATCH_SIZE, backend="meta")

    capture_s, _ = best_of(1, capture)
    warm_s, _ = best_of(1, capture)
    assert store.stats["captures"] == 1, "warm hit must not re-trace"
    return {
        "capture_s": round(capture_s, 6),
        "warm_hit_s": round(warm_s, 6),
        "speedup": round(capture_s / max(warm_s, 1e-9), 1),
        "captures": store.stats["captures"],
        "hits": store.stats["hits"],
    }


def bench() -> tuple[dict, list]:
    results: dict[str, dict] = {}
    for name in list_workloads():
        results[name] = bench_workload(name)
        print(f"{name:>14}: eager {results[name]['eager_s'] * 1e3:8.1f} ms   "
              f"meta {results[name]['meta_s'] * 1e3:7.1f} ms   "
              f"{results[name]['speedup']:7.1f}x")

    largest = max(results, key=lambda n: results[n]["eager_s"])
    warm = bench_warm_store(largest)
    print(f"largest workload by trace time: {largest} "
          f"({results[largest]['speedup']:.1f}x meta speedup)")
    print(f"warm trace-store hit on {largest}: {warm['warm_hit_s'] * 1e6:.0f} us "
          f"vs {warm['capture_s'] * 1e3:.1f} ms cold ({warm['speedup']:.0f}x)")

    payload = {
        "batch_size": BATCH_SIZE,
        "repeats": REPEATS,
        "workloads": results,
        "largest_workload": {"name": largest, "speedup": results[largest]["speedup"]},
        "warm_store": warm,
    }
    gates = [(results[largest]["speedup"] >= FLOOR,
              f"meta speedup on the largest workload is below {FLOOR:.0f}x")]
    return payload, gates


if __name__ == "__main__":
    raise SystemExit(run("trace_backend", bench))
