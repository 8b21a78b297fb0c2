"""Benchmark: binary columnar (v6) trace-store warm loads vs cold re-ingest.

Builds the same ~50k-node synthetic execution graph the ingest benchmark
uses and times the two ways a store can serve it: a cold
``get_or_ingest`` into an empty store (parse, map, lint, write — the path
any entry the store cannot read takes) and a warm *disk* load of the v6
binary columnar file that ingest wrote. Then seeds a small corpus (all
nine workloads, batch 8, meta backend) and measures per-trace binary load
latency plus a whole-corpus ``prefetch``.

Run from the repo root::

    python benchmarks/bench_store.py [-o FILE]

Emits ``BENCH_store.json``::

    {
      "ingest_50k": {"cold_ingest_ms": ..., "binary_ms": ..., "speedup": ...},
      "workloads": {"avmnist": {"binary_us": ...}, ...},
      "prefetch": {"entries": 10, "ms": ...}
    }

Exits non-zero if the binary warm load fails to beat the cold re-ingest
by ``MIN_SPEEDUP`` (the CI regression gate, 500x), if the mean
per-workload binary load exceeds ``SMALL_BUDGET_US``, if prefetch maps
another number of entries than the corpus holds, or if the whole run exceeds
``BUDGET_S`` seconds. Local runs land ~1,000-1,350x (the crc32 over the
5.2 MB file costs ~2 ms of the load) and ~130-150 us.
"""

from __future__ import annotations

import json
import statistics
import tempfile
from pathlib import Path

import numpy as np
from bench_ingest import synthetic_graph
from harness import best_of, run

from repro.trace import binfmt
from repro.trace.columns import HOST_COLUMN_SPEC, KERNEL_COLUMN_SPEC
from repro.trace.store import TraceStore
from repro.workloads.registry import list_workloads

NODES = 50_000
MIN_SPEEDUP = 500.0
SMALL_BUDGET_US = 5_000.0
BUDGET_S = 120.0


def bench() -> tuple[dict, list]:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        graph_path = tmp / "synthetic.json"
        graph_path.write_text(json.dumps(synthetic_graph(NODES)))

        def cold_ingest():
            store = TraceStore(tempfile.mkdtemp(dir=tmp))  # empty each round
            return store, store.get_or_ingest(str(graph_path))

        cold_s, (store, stored) = best_of(3, cold_ingest)
        cache = store.cache_dir
        mmt_path = next(cache.glob("*.mmt"))
        interner = binfmt.StringInterner(cache / TraceStore.INTERNING_SIDECAR)
        binary_s, (_, via_binary) = best_of(
            20, lambda: binfmt.read_entry(mmt_path, interner=interner))
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
                10, lambda p=path: binfmt.read_entry(p, interner=corpus_interner))
            per_workload[header["key"]["workload"]] = seconds
        mean_us = statistics.mean(per_workload.values()) * 1e6
        worst_us = max(per_workload.values()) * 1e6
        print(f"workload corpus: {len(per_workload)} traces, "
              f"mean warm load {mean_us:.0f} us, worst {worst_us:.0f} us")

        prefetch_s, n_prefetched = best_of(1, lambda: TraceStore(corpus).prefetch())
        print(f"prefetch: {n_prefetched} traces mapped in "
              f"{prefetch_s * 1e3:.2f} ms")

        size_mb = mmt_path.stat().st_size / 1e6

    payload = {
        "nodes": NODES,
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
    }
    gates = [
        (speedup >= MIN_SPEEDUP,
         f"binary warm load only {speedup:.1f}x over a cold re-ingest "
         f"(floor {MIN_SPEEDUP:.0f}x)"),
        (mean_us <= SMALL_BUDGET_US,
         f"mean workload load {mean_us:.0f} us over {SMALL_BUDGET_US:.0f} us budget"),
        (n_prefetched == len(per_workload),
         f"prefetch mapped {n_prefetched} of {len(per_workload)}"),
    ]
    return payload, gates


if __name__ == "__main__":
    raise SystemExit(run("store", bench, budget_s=BUDGET_S))
