"""In-memory span recorder for the traced benchmark run.

The recorder wraps each layer's public entry points *at the attribute
their callers resolve* (a class attribute for methods, a module
attribute for functions the program imports lazily), so the program
itself is unchanged. Every wrapped call becomes one span ``(name, start,
end, parent, op)``; layer counters are taken at the same boundaries by
small hooks that read the call's arguments and result. Nothing is
written until :meth:`SpanRecorder.chrome_trace` is called at exit.

A layer's self time is its span's duration minus the part its child
spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

_perf = time.perf_counter


class SpanRecorder:
    """Wraps entry points and keeps their spans and counters in memory."""

    def __init__(self):
        # (name, start, end, parent index or -1, op id); -1 op = set-up.
        self.spans: list = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``before(args, kwargs)`` runs ahead of the call and its value is
        passed on to ``after(rec, result, args, kwargs, state)``, which
        updates counters and may return a new span name (for example to
        tell a cache miss from a hit once the call has returned).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        rec = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = len(rec.spans)
            rec.spans.append(None)
            parent = rec._stack[-1] if rec._stack else -1
            rec._stack.append(idx)
            state = before(args, kwargs) if before is not None else None
            start = _perf()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                rec._stack.pop()
                rec.spans[idx] = (name, start, _perf(), parent, rec.op)
                raise
            end = _perf()
            rec._stack.pop()
            label = name
            if after is not None:
                label = after(rec, result, args, kwargs, state) or name
            rec.spans[idx] = (label, start, end, parent, rec.op)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] += n

    # -- analysis -----------------------------------------------------------------

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name over the timed commands: calls, total wall and
        self time (seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if op < 0:
                continue
            row = table.setdefault(name, {"calls": 0, "wall": 0.0, "self": 0.0})
            row["calls"] += 1
            row["wall"] += end - start
            row["self"] += end - start - child[i]
        return table

    def covered(self) -> float:
        """Seconds of timed ops spent inside some top-level span."""
        return sum(end - start for name, start, end, parent, op in self.spans
                   if op >= 0 and parent < 0)

    def chrome_trace(self, path: Path, meta: dict) -> None:
        """Write the spans as Chrome trace-event JSON (Perfetto-viewable)."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        events = [
            {"name": name, "ph": "X", "pid": 1, "tid": 1,
             "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
             "args": {"op": op, "parent": parent, "id": i}}
            for i, (name, start, end, parent, op) in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms",
                                    "otherData": meta}))


# -- the layer boundaries -------------------------------------------------------


def _file_size(path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0


def _arg(args, kwargs, index: int, name: str):
    """A wrapped call's argument, passed by position or by keyword."""
    return args[index] if len(args) > index else kwargs[name]


def install(rec: SpanRecorder) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    import repro.core.analysis.training as training
    import repro.core.report as report
    import repro.lint as lint
    import repro.profiling.profiler as profiler
    import repro.serving.faults as faults
    import repro.serving.fleet as fleet
    import repro.serving.scenarios as scenarios
    import repro.serving.simulator as simulator
    import repro.trace.ingest as ingest
    from repro.hw.engine import ExecutionEngine
    from repro.trace.store import TraceStore
    from repro.workloads.registry import WorkloadInfo

    # workloads: model builds.
    def built(rec, result, args, kwargs, state):
        rec.count("workloads.builds")

    rec.wrap(WorkloadInfo, "build", "workloads.build", after=built)
    rec.wrap(WorkloadInfo, "build_unimodal", "workloads.build", after=built)

    # nn capture, seen from the store: a miss captures, a hit only looks up.
    def captures(args, kwargs):
        return args[0].stats["captures"]

    def captured(rec, result, args, kwargs, before):
        if args[0].stats["captures"] > before:
            rec.count("nn.kernels_captured", result.trace.columns().n)
            return "nn.capture"
        return None

    rec.wrap(TraceStore, "get_or_capture", "trace.store.lookup",
             before=captures, after=captured)
    rec.wrap(TraceStore, "get_or_capture_training", "trace.store.lookup",
             before=captures, after=captured)
    rec.wrap(TraceStore, "get_or_ingest", "trace.store.lookup")
    rec.wrap(TraceStore, "model", "trace.store.model")
    rec.wrap(TraceStore, "__init__", "trace.store.open")

    # trace.store: the disk tier.
    def get_before(args, kwargs):
        return dict(args[0].stats)

    def got(rec, result, args, kwargs, before):
        store, key = args[0], _arg(args, kwargs, 1, "key")
        for field in ("hits", "disk_hits", "misses"):
            rec.count(f"trace.store.{field}", store.stats[field] - before[field])
        if store.stats["disk_hits"] > before["disk_hits"]:
            rec.count("trace.store.bytes_read",
                      _file_size(store._binary_path(key.digest())))

    def put_before(args, kwargs):
        store = args[0]
        if store.cache_dir is None:
            return 0
        return _file_size(store.cache_dir / store.INTERNING_SIDECAR)

    def put(rec, result, args, kwargs, sidecar_before):
        store, key = args[0], _arg(args, kwargs, 1, "key")
        if store.cache_dir is not None:
            sidecar = _file_size(store.cache_dir / store.INTERNING_SIDECAR)
            rec.count("trace.store.bytes_written",
                      _file_size(store._binary_path(key.digest()))
                      + sidecar - sidecar_before)

    rec.wrap(TraceStore, "get", "trace.store.get", before=get_before, after=got)
    rec.wrap(TraceStore, "put", "trace.store.put", before=put_before, after=put)

    # trace.ingest.
    def ingested(rec, result, args, kwargs, state):
        rec.count("trace.ingest.nodes", result.report.n_nodes)

    rec.wrap(ingest, "ingest_graph", "trace.ingest", after=ingested)

    # lint: every pre-run hook resolves these lazily from the package.
    def diagnosed(rec, result, args, kwargs, state):
        rec.count("lint.diagnostics", len(result))

    for fn in ("lint_trace", "lint_tenants", "lint_fault_plan", "lint_fleet"):
        rec.wrap(lint, fn, "lint", after=diagnosed)
    rec.wrap(lint, "check", "lint")

    # hw.engine and profiling.
    def priced(rec, result, args, kwargs, state):
        rec.count("hw.engine.runs")
        rec.count("hw.engine.kernels_priced",
                  _arg(args, kwargs, 1, "trace").columns().n)

    def swept(rec, result, args, kwargs, state):
        rec.count("hw.engine.runs", len(result))
        rec.count("hw.engine.kernels_priced",
                  _arg(args, kwargs, 1, "trace").columns().n * len(result))

    rec.wrap(ExecutionEngine, "run", "hw.engine.run", after=priced)
    rec.wrap(ExecutionEngine, "run_sweep", "hw.engine.run", after=swept)
    rec.wrap(profiler.MMBenchProfiler, "price", "profiling.price")
    rec.wrap(profiler.MMBenchProfiler, "profile_stored", "profiling.price")

    # core: the characterization commands.
    rec.wrap(report, "characterization_report", "core.report.render")
    rec.wrap(training, "training_step_analysis", "core.analysis.training")

    # serving: anchor fills go through price_grid, resolved lazily.
    def filled(rec, result, args, kwargs, state):
        rec.count("serving.costmodel.anchor_fills")

    rec.wrap(profiler, "price_grid", "serving.costmodel.fill", after=filled)
    rec.wrap(scenarios, "make_tenants", "serving.tenants")
    rec.wrap(scenarios, "scenario_columns", "serving.scenarios.generate")
    rec.wrap(scenarios, "scenario_requests", "serving.scenarios.generate")
    rec.wrap(faults, "chaos_plan", "serving.faults.plan")
    rec.wrap(faults.FaultRuntime, "build_stats", "serving.faults.stats")

    def served(rec, result, args, kwargs, state):
        rec.count("serving.simulator.batches",
                  sum(d.batches for d in result.device_stats.values()))
        if result.fault_stats is not None:
            rec.count("serving.faults.retries", result.fault_stats.retries)
            rec.count("serving.faults.shed", result.fault_stats.shed)

    rec.wrap(simulator, "simulate_mixed", "serving.simulator", after=served)
    rec.wrap(simulator, "_run_event_loop", "serving.simulator.loop")

    def fleet_served(rec, result, args, kwargs, state):
        rec.count("serving.fleet.batches",
                  sum(g.batches for g in result.group_stats.values()))
        rec.count("serving.fleet.hop_batches",
                  sum(g.hop_batches for g in result.group_stats.values()))
        rec.count("serving.fleet.scaling_events", len(result.scaling_events))

    rec.wrap(fleet, "simulate_fleet", "serving.fleet", after=fleet_served)
    rec.wrap(fleet._FleetEngine, "run", "serving.fleet.loop")
