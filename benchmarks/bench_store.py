"""Benchmark: binary columnar (v6) trace-store warm loads vs cold re-ingest.

Builds the same ~50k-node synthetic execution graph the ingest benchmark
uses and times the two ways a store can serve it: a cold
``get_or_ingest`` into an empty store (parse, map, lint, write — the path
any entry the store cannot read takes) and a warm *disk* load of the v6
binary columnar file that ingest wrote. Then seeds a small corpus (all
nine workloads, batch 8, meta backend) and measures per-trace binary load
latency plus a whole-corpus ``prefetch``.

Run from the repo root::

    python benchmarks/bench_store.py [--nodes 50000] [-o FILE]

Emits ``BENCH_store.json``::

    {
      "ingest_50k": {"cold_ingest_ms": ..., "binary_ms": ..., "speedup": ...},
      "workloads": {"avmnist": {"binary_us": ...}, ...},
      "prefetch": {"entries": 10, "ms": ...}
    }

Exits non-zero if the binary warm load fails to beat the cold re-ingest
by ``--min-speedup`` (CI regression gate, default 500x), if the mean
per-workload binary load exceeds ``--small-budget-us``, or if the whole
run exceeds ``--budget`` seconds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from bench_ingest import synthetic_graph
from repro.trace import binfmt
from repro.trace.columns import HOST_COLUMN_SPEC, KERNEL_COLUMN_SPEC
from repro.trace.store import TraceStore
from repro.workloads.registry import list_workloads


def best_of(fn, reps: int) -> tuple[float, object]:
    """(best seconds, last result) over ``reps`` calls."""
    best = float("inf")
    out = None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=50_000)
    parser.add_argument("--min-speedup", type=float, default=500.0,
                        help="binary warm load must beat a cold re-ingest "
                             "by this")
    parser.add_argument("--small-budget-us", type=float, default=5_000.0,
                        help="mean binary load budget for the nine "
                             "workload traces (microseconds)")
    parser.add_argument("--budget", type=float, default=120.0,
                        help="wall-clock budget for the whole benchmark (s)")
    parser.add_argument("-o", "--output", default="BENCH_store.json")
    args = parser.parse_args(argv)

    run_start = time.perf_counter()

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        graph_path = tmp / "synthetic.json"
        graph_path.write_text(json.dumps(synthetic_graph(args.nodes)))

        def cold_ingest():
            store = TraceStore(tempfile.mkdtemp(dir=tmp))  # empty each round
            return store, store.get_or_ingest(str(graph_path))

        cold_s, (store, stored) = best_of(cold_ingest, 3)
        cache = store.cache_dir
        mmt_path = next(cache.glob("*.mmt"))
        interner = binfmt.StringInterner(cache / TraceStore.INTERNING_SIDECAR)
        binary_s, (_, via_binary) = best_of(
            lambda: binfmt.read_entry(mmt_path, interner=interner), 20)
        speedup = cold_s / binary_s

        cols_i, cols_b = stored.trace.columns(), via_binary.trace.columns()
        for name, _ in KERNEL_COLUMN_SPEC + HOST_COLUMN_SPEC:
            assert np.array_equal(getattr(cols_i, name), getattr(cols_b, name)), \
                f"column {name} differs between the ingest and its binary load"
        assert not cols_b.flops.flags["OWNDATA"], "binary load must be zero-copy"

        print(f"50k-node ingest trace ({mmt_path.stat().st_size / 1e6:.1f} MB "
              f"binary)")
        print(f"  cold re-ingest {cold_s:.2f} s, warm v6 binary disk load "
              f"{binary_s * 1e6:.0f} us -> {speedup:,.0f}x")

        # -- small-trace corpus: the nine workloads ---------------------------
        corpus = tmp / "corpus"
        seeder = TraceStore(corpus)
        for workload in list_workloads():
            seeder.get_or_capture(workload, batch_size=8, backend="meta")
        corpus_interner = binfmt.StringInterner(
            corpus / TraceStore.INTERNING_SIDECAR)
        per_workload: dict[str, float] = {}
        for path in sorted(corpus.glob("*.mmt")):
            seconds, (header, _) = best_of(
                lambda p=path: binfmt.read_entry(p, interner=corpus_interner), 10)
            per_workload[header["key"]["workload"]] = seconds
        mean_us = statistics.mean(per_workload.values()) * 1e6
        worst_us = max(per_workload.values()) * 1e6
        print(f"workload corpus: {len(per_workload)} traces, "
              f"mean warm load {mean_us:.0f} us, worst {worst_us:.0f} us")

        t0 = time.perf_counter()
        fresh = TraceStore(corpus)
        n_prefetched = fresh.prefetch()
        prefetch_s = time.perf_counter() - t0
        print(f"prefetch: {n_prefetched} traces mapped in "
              f"{prefetch_s * 1e3:.2f} ms")

        size_mb = mmt_path.stat().st_size / 1e6

    total_s = time.perf_counter() - run_start
    payload = {
        "bench": "store",
        "nodes": args.nodes,
        "binary_mb": round(size_mb, 2),
        "ingest_50k": {
            "cold_ingest_ms": round(cold_s * 1e3, 1),
            "binary_ms": round(binary_s * 1e3, 4),
            "speedup": round(speedup, 1),
        },
        "workloads": {w: {"binary_us": round(s * 1e6, 1)}
                      for w, s in sorted(per_workload.items())},
        "workloads_mean_us": round(mean_us, 1),
        "prefetch": {"entries": n_prefetched,
                     "ms": round(prefetch_s * 1e3, 2)},
        "total_seconds": round(total_s, 2),
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output} (total {total_s:.1f} s)")

    failed = False
    if speedup < args.min_speedup:
        print(f"FAIL: binary warm load only {speedup:.1f}x over a cold "
              f"re-ingest (floor {args.min_speedup:.0f}x)")
        failed = True
    if mean_us > args.small_budget_us:
        print(f"FAIL: mean workload load {mean_us:.0f} us over "
              f"{args.small_budget_us:.0f} us budget")
        failed = True
    if n_prefetched != len(per_workload):
        print(f"FAIL: prefetch mapped {n_prefetched} of {len(per_workload)}")
        failed = True
    if total_s > args.budget:
        print(f"FAIL: benchmark exceeded {args.budget:.0f} s budget")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
