"""Benchmark: execution-graph ingest throughput and warm-store re-ingest.

Generates a synthetic ~50k-node execution-graph JSON (a serial chain of
mixed known/unknown ops with realistic shape payloads, serialized in
shuffled order so the topological sort does real work), writes it to a
temp file, and measures:

* **cold ingest** — full parse -> map -> toposort -> trace build,
  reported in nodes/second;
* **warm memory hit** — a second ``get_or_ingest`` of the same file
  against the in-process store tier;
* **warm disk hit** — a fresh store pointed at the same cache dir,
  loading the columnar payload instead of re-ingesting.

Run from the repo root::

    python benchmarks/bench_ingest.py [-o FILE]

Emits ``BENCH_ingest.json``::

    {
      "nodes": 50000,
      "cold": {"seconds": ..., "nodes_per_s": ...},
      "warm_memory": {"seconds": ..., "speedup": ...},
      "warm_disk": {"seconds": ..., "speedup": ...}
    }

Exits non-zero if cold throughput drops below ``FLOOR`` nodes/s, if a
warm memory hit fails to beat a cold ingest by ``WARM_SPEEDUP``, or if
the whole run exceeds ``BUDGET_S`` seconds (CI regression gates). Local
runs land ~22k nodes/s (the name heuristics run once per distinct op
name) with a ~230x warm hit.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
from harness import best_of, run

from repro.trace.ingest import ingest_graph
from repro.trace.store import TraceStore

NODES = 50_000
FLOOR = 5_000.0
WARM_SPEEDUP = 5.0
BUDGET_S = 120.0

KNOWN_OPS = ("conv2d", "matmul", "relu", "batch_norm", "softmax",
             "max_pool2d", "add", "linear", "layer_norm", "mul")
UNKNOWN_OPS = ("vendor_fused_op", "mystery_kernel")


def synthetic_graph(n_nodes: int, seed: int = 0) -> dict:
    """A shuffled serial-chain graph of ``n_nodes`` mixed ops."""
    rng = np.random.default_rng(seed)
    nodes = []
    for i in range(1, n_nodes + 1):
        unknown = rng.random() < 0.05
        name = str(rng.choice(UNKNOWN_OPS if unknown else KNOWN_OPS))
        shape = [int(d) for d in rng.integers(1, 65, size=2)]
        nodes.append({
            "id": i,
            "name": name,
            "parents": [i - 1] if i > 1 else [],
            "input_shapes": [shape, shape],
            "input_dtypes": ["float32", "float32"],
            "output_shapes": [shape],
            "output_dtypes": ["float32"],
        })
    order = rng.permutation(n_nodes)
    return {"schema": "mmbench-eg/1", "name": "synthetic_50k",
            "batch_size": 8, "nodes": [nodes[int(i)] for i in order]}


def bench() -> tuple[dict, list]:
    graph = synthetic_graph(NODES)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "synthetic.json"
        path.write_text(json.dumps(graph))
        size_mb = path.stat().st_size / 1e6

        cold_s, ingested = best_of(1, lambda: ingest_graph(str(path)))
        nodes_per_s = NODES / cold_s
        print(f"cold ingest: {NODES:,} nodes ({size_mb:.1f} MB) in "
              f"{cold_s:.2f} s = {nodes_per_s:,.0f} nodes/s "
              f"(unknown fraction {ingested.report.unknown_fraction:.1%})")

        cache_dir = Path(tmp) / "cache"
        store = TraceStore(cache_dir)
        fill_s, _ = best_of(1, lambda: store.get_or_ingest(str(path)))
        warm_mem_s, _ = best_of(1, lambda: store.get_or_ingest(str(path)))
        print(f"store fill (ingest + disk write): {fill_s:.2f} s; "
              f"warm memory hit: {warm_mem_s * 1e3:.2f} ms "
              f"({cold_s / warm_mem_s:,.0f}x over cold)")

        fresh = TraceStore(cache_dir)
        warm_disk_s, entry = best_of(1, lambda: fresh.get_or_ingest(str(path)))
        assert fresh.stats["disk_hits"] == 1, "expected a disk hit"
        assert entry.extra["ingest"]["n_nodes"] == NODES
        print(f"warm disk hit (fresh process): {warm_disk_s:.2f} s "
              f"({cold_s / warm_disk_s:.1f}x over cold)")

    payload = {
        "nodes": NODES,
        "graph_mb": round(size_mb, 2),
        "unknown_fraction": round(ingested.report.unknown_fraction, 4),
        "cold": {"seconds": round(cold_s, 4),
                 "nodes_per_s": round(nodes_per_s, 1)},
        "warm_memory": {"seconds": round(warm_mem_s, 6),
                        "speedup": round(cold_s / warm_mem_s, 1)},
        "warm_disk": {"seconds": round(warm_disk_s, 4),
                      "speedup": round(cold_s / warm_disk_s, 1)},
    }
    gates = [
        (nodes_per_s >= FLOOR, f"cold ingest below {FLOOR:,.0f} nodes/s"),
        (cold_s / warm_mem_s >= WARM_SPEEDUP,
         f"warm memory hit under {WARM_SPEEDUP:.0f}x cold"),
    ]
    return payload, gates


if __name__ == "__main__":
    raise SystemExit(run("ingest", bench, budget_s=BUDGET_S))
