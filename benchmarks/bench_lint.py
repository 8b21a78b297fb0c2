"""Benchmark: static lint throughput over traces and the fixture corpus.

Lint rules are pure array math, so they must stay effectively free next
to capture/ingest/pricing. This benchmark measures:

* **50k-kernel trace lint** — every trace rule over a synthetic ingested
  trace (the hot pre-run hook path), gated under ``TRACE_BUDGET_MS`` (50 ms);
* **full corpus lint** — every execution-graph fixture under
  ``tests/fixtures/execution_graphs/`` plus a captured trace for each of
  the nine built-in workloads, gated under ``CORPUS_BUDGET_MS`` (250 ms,
  the CI regression gate).

Captures and ingests happen *outside* the timed regions; only the lint
itself is on the clock.

Run from the repo root::

    python benchmarks/bench_lint.py [-o FILE]

Emits ``BENCH_lint.json``::

    {
      "trace": {"kernels": 50000, "ms": ..., "kernels_per_s": ...},
      "corpus": {"artifacts": ..., "diagnostics": ..., "ms": ...}
    }
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from bench_ingest import synthetic_graph
from harness import best_of, run

from repro.lint import lint_path, lint_trace
from repro.trace.ingest import ingest_graph
from repro.trace.store import TraceStore
from repro.workloads.registry import list_workloads

FIXTURES = Path(__file__).parent.parent / "tests" / "fixtures" / \
    "execution_graphs"
NODES = 50_000
TRACE_BUDGET_MS = 50.0
CORPUS_BUDGET_MS = 250.0


def bench() -> tuple[dict, list]:
    # -- 50k-kernel trace: the pre-run hook path ------------------------------
    graph = synthetic_graph(NODES)
    ingested = ingest_graph(graph)
    lint_trace(ingested)  # warm the numpy/jit caches off the clock
    trace_s, report = best_of(1, lambda: lint_trace(ingested, source="synthetic"))
    trace_ms = trace_s * 1e3
    print(f"trace lint: {NODES:,} kernels in {trace_ms:.2f} ms "
          f"= {NODES / trace_s:,.0f} kernels/s "
          f"({len(report)} diagnostic(s))")

    # -- full corpus: fixtures + the nine workloads ----------------------------
    fixture_paths = sorted(FIXTURES.glob("*.json"))
    with tempfile.TemporaryDirectory() as tmp:
        store = TraceStore(tmp)
        captured = [store.get_or_capture(w, batch_size=8, backend="meta")
                    for w in sorted(list_workloads())]

        def lint_corpus():
            n_diags = 0
            for path in fixture_paths:
                n_diags += len(lint_path(path))
            for stored in captured:
                n_diags += len(lint_trace(stored,
                                          source=stored.model_name))
            return n_diags

        lint_corpus()  # warm
        corpus_s, n_diags = best_of(1, lint_corpus)
    corpus_ms = corpus_s * 1e3
    n_artifacts = len(fixture_paths) + len(captured)
    print(f"corpus lint: {n_artifacts} artifacts in {corpus_ms:.2f} ms "
          f"({n_diags} diagnostic(s))")

    payload = {
        "trace": {"kernels": NODES, "ms": round(trace_ms, 3),
                  "kernels_per_s": round(NODES / trace_s, 1)},
        "corpus": {"artifacts": n_artifacts, "diagnostics": n_diags,
                   "ms": round(corpus_ms, 3)},
    }
    gates = [
        (trace_ms <= TRACE_BUDGET_MS,
         f"50k-kernel trace lint over {TRACE_BUDGET_MS:.0f} ms budget"),
        (corpus_ms <= CORPUS_BUDGET_MS,
         f"corpus lint over {CORPUS_BUDGET_MS:.0f} ms budget"),
    ]
    return payload, gates


if __name__ == "__main__":
    raise SystemExit(run("lint", bench))
