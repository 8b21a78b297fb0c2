"""End-to-end benchmark of mmbench: characterization and serving commands.

Run from the repository root::

    python3 perfbench/run.py --workload characterize-warm --seed 3 --seconds 10 --trace 0

It measures host time (never simulated time) in this one process, with
BLAS/OpenMP pinned to one thread, as a closed-loop single client that
issues commands back to back in rounds (see ``workloads.py``). Only whole
rounds run, until ``--seconds`` have passed. Every command's output is
checked against the recorded references (``outputs.py``); a command that
raises or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics: set-up time, commands per
second, median and p95 command latency, and peak RSS. Set-up is timed in
this process and in ``SETUP_CHILDREN`` more fresh processes, each from
its start to the end of its warm-up; ``setup_s`` is their median. Every
time is scaled to a reference host speed (see ``host_probe``).
``--trace 1``
alternates untraced rounds with rounds in which every layer boundary is
wrapped (``spans.py``), and reports the per-layer split per round, the
tracing overhead and the share of the timed wall the spans cover; it also
writes the spans as Chrome trace-event JSON under ``.perfbench/trace/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--record`` re-records ``reference/*.json``; do that only when a change
is meant to alter the simulated outputs.
"""

from __future__ import annotations

import os
import sys
import time

_START = time.perf_counter()
THREAD_PINS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("characterize-cold", "characterize-warm", "serve-mixed", "serve-fleet")
#: Fresh processes that time set-up besides this one; ``setup_s`` is the
#: median over all of them.
SETUP_CHILDREN = 4
#: What one ``host_probe()`` takes at the reference host speed: the
#: uncontended speed of a 2-vCPU Intel Xeon VM (Python 3.11).
HOST_REF_S = 0.8e-3
#: Probes on either side of a command whose median scales its time.
PROBE_WINDOW = 2
#: Probes after set-up, whose median scales the set-up time.
SETUP_PROBES = 25
#: Fewest times for ten samples to lie beyond the p95.
MIN_SAMPLES = 200
COVERAGE_FLOOR = 0.95

_perf = time.perf_counter


def host_probe() -> float:
    """Seconds that one fixed piece of work takes on the host right now.

    A shared host runs at about two speeds, up to 2x apart, for seconds
    to minutes at a time, and the share of each drifts between runs, so
    any statistic of raw command times moves with it. The probe calls
    nothing of the program, so a change to the program does not move it,
    while a change of host speed moves it about as much as the commands:
    dict updates, small-object allocation and string sorting. On a 2-vCPU
    Intel Xeon VM, over 120 s in which the host slowed commands by up to
    1.7x, the probe's slowdown per 5 s window tracked the commands' with
    slope 1.03 (characterization) and 1.14 (classic serving), and
    normalizing cut the windows' log-slowdown spread from 0.16-0.19 to
    0.024-0.027. Pure interpreter arithmetic, small numpy calls and
    pointer chasing tracked only half the commands' slowdown. A command's
    time times ``HOST_REF_S / probe`` is its time at the reference speed.
    """
    t0 = _perf()
    table: dict[int, int] = {}
    for i in range(3000):
        k = i % 257
        table[k] = table.get(k, 0) + i
    items = [{"a": i, "b": (i, i + 1)} for i in range(900)]
    del items
    sorted(str(i) for i in range(550))
    return _perf() - t0


def probed_speed(n: int) -> float:
    """Host speed as a share of the reference, from ``n`` probes."""
    return HOST_REF_S / statistics.median(host_probe() for _ in range(n))


def _load_program() -> None:
    """Put this checkout's ``src`` first on the path, or refuse to run."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {src}; "
                         "run it from a full checkout of the repository")
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {src}")


# -- one timed phase ---------------------------------------------------------------


class Phase:
    """What one timed phase measured."""

    def __init__(self):
        # seconds at the reference host speed per passing command, by command
        self.by_key: dict[str, list[float]] = {}
        self.wall = 0.0  # host seconds inside commands, passing or not
        self.speeds: list[float] = []  # probed host speed per round
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.problems: list[str] = []
        self.round_counters: list[dict] = []

    def times(self) -> list[float]:
        return [t for times in self.by_key.values() for t in times]

    @property
    def ops_per_s(self) -> float:
        """Commands per second, each command at the median of its times."""
        if not self.by_key:
            return 0.0
        return len(self.by_key) / sum(statistics.median(t) for t in self.by_key.values())


def _quantile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_round(workload, phase: Phase, rec=None) -> None:
    """Run one round of commands into ``phase``; only the calls are timed.

    A host probe runs before each command and after the last one. Each
    time is scaled by the median of the ``PROBE_WINDOW`` probes on either
    side of its command, which follows the host's speed changes faster
    than one scale per round.
    """
    ops = workload.ops()
    workload.begin_round()
    counters = dict(rec.counters) if rec is not None else None
    passed = []
    probes = []
    for key, call in ops:
        probes.append(host_probe())
        if rec is not None:
            rec.op = phase.attempted
        t0 = _perf()
        try:
            result = call()
        except Exception:  # a failed command is counted, not fatal
            phase.wall += _perf() - t0
            phase.attempted += 1
            phase.failed += 1
            if len(phase.problems) < 5:
                phase.problems.append(f"{key}: {traceback.format_exc()}")
            continue
        finally:
            if rec is not None:
                rec.op = -1
        elapsed = _perf() - t0
        phase.wall += elapsed
        phase.attempted += 1
        problems = workload.check(key, result)
        if problems:
            phase.failed += 1
            phase.problems += problems[:5 - min(5, len(phase.problems))]
        else:
            passed.append((key, elapsed, len(probes)))  # index of the probe after it
    probes.append(host_probe())
    round_problems = workload.end_round()
    phase.speeds.append(HOST_REF_S / statistics.median(probes))
    if round_problems:  # the whole round is wrong, not one command
        phase.failed += len(passed)
        phase.problems += round_problems
    else:
        for key, elapsed, after in passed:
            near = probes[max(0, after - PROBE_WINDOW):after + PROBE_WINDOW]
            phase.by_key.setdefault(key, []).append(
                elapsed * HOST_REF_S / statistics.median(near))
    if rec is not None:
        phase.round_counters.append(
            {k: v - counters.get(k, 0.0) for k, v in rec.counters.items()})
    phase.rounds += 1


def repeat_for(seconds: float, step) -> None:
    """Call ``step()`` until ``seconds`` have passed, at least once."""
    start = _perf()
    step()
    while _perf() - start < seconds:
        step()


# -- metrics -----------------------------------------------------------------------------


def end_to_end(phase: Phase, setup_s: float) -> dict:
    times_ms = [t * 1e3 for t in phase.times()] or [0.0]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (phase.ops_per_s, "ops/s"),
        "op_p50_ms": (_quantile(times_ms, 50), "ms"),
        "op_p95_ms": (_quantile(times_ms, 95), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


#: Per-layer metrics of a traced run: name -> (unit, source). Times are
#: self times (span minus its child spans), per round, in seconds; counts
#: are per round. ``setup`` rows come from the traced set-up instead.
PER_LAYER = {
    "workloads.build_s": ("s/round", ("self", "workloads.build")),
    "workloads.builds": ("count/round", ("count", "workloads.builds")),
    "nn.capture_s": ("s/round", ("self", "nn.capture")),
    "nn.kernels_captured": ("count/round", ("count", "nn.kernels_captured")),
    "trace.store.put_s": ("s/round", ("self", "trace.store.put")),
    "trace.store.bytes_written": ("B/round", ("count", "trace.store.bytes_written")),
    "trace.store.get_s": ("s/round", ("self", "trace.store.get")),
    "trace.store.bytes_read": ("B/round", ("count", "trace.store.bytes_read")),
    "trace.store.hits": ("count/round", ("count", "trace.store.hits")),
    "trace.store.disk_hits": ("count/round", ("count", "trace.store.disk_hits")),
    "trace.store.misses": ("count/round", ("count", "trace.store.misses")),
    "trace.store.hit_ratio": ("ratio", ("hit_ratio", None)),
    "trace.ingest.s": ("s/round", ("self", "trace.ingest")),
    "trace.ingest.nodes": ("count/round", ("count", "trace.ingest.nodes")),
    "trace.ingest.nodes_per_s": ("nodes/s", ("nodes_per_s", None)),
    "lint.s": ("s/round", ("self", "lint")),
    "lint.diagnostics": ("count/round", ("count", "lint.diagnostics")),
    "hw.engine.run_s": ("s/round", ("self", "hw.engine.run")),
    "hw.engine.runs": ("count/round", ("count", "hw.engine.runs")),
    "hw.engine.kernels_priced": ("count/round", ("count", "hw.engine.kernels_priced")),
    "profiling.price_s": ("s/round", ("self", "profiling.price")),
    "core.report.render_s": ("s/round", ("self", "core.report.render")),
    "core.analysis.training_s": ("s/round", ("self", "core.analysis.training")),
    "serving.costmodel.anchor_fills": ("count/setup", ("setup_count",
                                                       "serving.costmodel.anchor_fills")),
    "serving.costmodel.fill_s": ("s/setup", ("setup_wall", "serving.costmodel.fill")),
    "serving.scenarios.generate_s": ("s/round", ("self", "serving.scenarios.generate")),
    "serving.simulator.loop_s": ("s/round", ("self", "serving.simulator.loop")),
    "serving.simulator.batches": ("count/round", ("count", "serving.simulator.batches")),
    "serving.faults.retries": ("count/round", ("count", "serving.faults.retries")),
    "serving.faults.shed": ("count/round", ("count", "serving.faults.shed")),
    "serving.fleet.loop_s": ("s/round", ("self", "serving.fleet.loop")),
    "serving.fleet.batches": ("count/round", ("count", "serving.fleet.batches")),
    "serving.fleet.scaling_events": ("count/round", ("count", "serving.fleet.scaling_events")),
    "serving.fleet.hop_batches": ("count/round", ("count", "serving.fleet.hop_batches")),
    "bench.untraced_ops_per_s": ("ops/s", ("untraced", None)),
    "bench.traced_ops_per_s": ("ops/s", ("traced", None)),
    "bench.trace_overhead": ("ratio", ("overhead", None)),
    "bench.span_coverage": ("ratio", ("coverage", None)),
}


def per_layer(rec, setup_counters: dict, untraced: Phase, traced: Phase) -> dict:
    table = rec.self_times()
    rounds = max(traced.rounds, 1)
    timed: dict[str, float] = {}
    for counts in traced.round_counters:
        for k, v in counts.items():
            timed[k] = timed.get(k, 0.0) + v
    lookups = timed.get("trace.store.hits", 0.0) + timed.get("trace.store.misses", 0.0)
    ingest_wall = table.get("trace.ingest", {}).get("wall", 0.0)
    derived = {
        "hit_ratio": timed.get("trace.store.hits", 0.0) / lookups if lookups else 0.0,
        "nodes_per_s": timed.get("trace.ingest.nodes", 0.0) / ingest_wall if ingest_wall else 0.0,
        "untraced": untraced.ops_per_s,
        "traced": traced.ops_per_s,
        "overhead": untraced.ops_per_s / traced.ops_per_s - 1.0 if traced.ops_per_s else 0.0,
        "coverage": rec.covered() / traced.wall if traced.wall else 0.0,
    }
    setup_wall = {}
    for name, start, end, parent, op in rec.spans:
        if op < 0:
            setup_wall[name] = setup_wall.get(name, 0.0) + end - start
    metrics = {}
    for name, (unit, (kind, source)) in PER_LAYER.items():
        if kind == "self":
            value = table.get(source, {}).get("self", 0.0) / rounds
        elif kind == "count":
            value = timed.get(source, 0.0) / rounds
        elif kind == "setup_count":
            value = setup_counters.get(source, 0.0)
        elif kind == "setup_wall":
            value = setup_wall.get(source, 0.0)
        else:
            value = derived[kind]
        metrics[name] = (value, unit)
    return metrics


def trace_problems(traced: Phase, coverage: float) -> list[str]:
    """Per-layer counters must repeat in every round; spans must cover the
    timed wall. (Warm/cold store use and timed anchor fills are checked in
    every round by the workloads themselves.)"""
    problems = []
    first = traced.round_counters[0] if traced.round_counters else {}
    for i, counts in enumerate(traced.round_counters[1:], start=2):
        if counts != first:
            changed = sorted(k for k in set(first) | set(counts)
                             if first.get(k) != counts.get(k))
            problems.append(f"round {i} counters differ from round 1: {changed}")
            break
    if coverage < COVERAGE_FLOOR:
        problems.append(f"spans cover {coverage:.1%} of the timed wall "
                        f"(< {COVERAGE_FLOOR:.0%})")
    return problems


# -- stamping and printing ------------------------------------------------------------


def _git_sha() -> str | None:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp(seed: int) -> dict:
    """Where a result came from. ``src_lines`` is information, not a
    gated metric; ``code_digest`` names the program and benchmark sources
    when the checkout carries no git metadata."""
    import hashlib

    import numpy

    digest, src_lines = hashlib.sha256(), 0
    for root in (ROOT / "src", ROOT / "perfbench"):
        for path in sorted(root.rglob("*.py")):
            data = path.read_bytes()
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
            if root.name == "src":
                src_lines += len(data.splitlines())
    return {"git_sha": _git_sha(), "code_digest": digest.hexdigest()[:16],
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "thread_pins": THREAD_PINS, "seed": seed,
            "src_lines": src_lines}


def repeat_problems(name: str, meta: dict, counts: dict) -> list[str]:
    """One seed's per-round counters must repeat exactly in every run of
    the same code: the first traced run records them, later ones compare."""
    path = OUT / "counters" / f"{name}-seed{meta['seed']}-{meta['code_digest']}.json"
    counts = dict(sorted(counts.items()))
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts))
        return []
    before = json.loads(path.read_text())
    changed = sorted(k for k in set(before) | set(counts) if before.get(k) != counts.get(k))
    return [f"per-layer counters {changed} differ from an earlier run of this seed"] \
        if changed else []


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {unit}")


def print_layers(rec, rounds: int) -> None:
    table = rec.self_times()
    print(f"per-layer self time over {rounds} traced rounds:")
    print(f"  {'span':<32} {'calls':>8} {'self s':>10} {'wall s':>10}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self"]):
        print(f"  {name:<32} {row['calls']:>8} {row['self']:>10.4f} {row['wall']:>10.4f}")


# -- main ---------------------------------------------------------------------------------


def measure(args) -> int:
    from perfbench import outputs, spans, workloads

    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    workload = workloads.make(args.workload, args.seed, work)
    rec = spans.SpanRecorder() if args.trace else None
    try:
        if rec is not None:  # the per-layer split of a fresh set-up
            spans.install(rec)
        setup_problems = workload.setup()
        setup_times = [(_perf() - _START) * probed_speed(SETUP_PROBES)]
        if rec is not None:
            rec.uninstall()
        else:
            for _ in range(SETUP_CHILDREN):
                child_s, child_problems = fresh_setup(args)
                setup_times.append(child_s)
                setup_problems += child_problems
        setup_counters = dict(rec.counters) if rec is not None else {}
        setup_s = statistics.median(setup_times)

        untraced = Phase()
        if rec is None:
            traced = untraced
            repeat_for(args.seconds, lambda: run_round(workload, untraced))
        else:
            # Traced and untraced rounds alternate, so both see the same
            # share of the host's slow and fast stretches.
            traced = Phase()

            def traced_round():
                spans.install(rec)
                try:
                    run_round(workload, traced, rec)
                finally:
                    rec.uninstall()

            repeat_for(args.seconds,
                       lambda: (run_round(workload, untraced), traced_round()))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    phases = [untraced] if untraced is traced else [untraced, traced]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    problems = setup_problems + [msg for p in phases for msg in p.problems]
    meta = stamp(args.seed)
    print(f"workload {args.workload} seed {args.seed}: {workload.round_unit}; "
          f"{workload.info()}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"output checks: {workload.refs.checked} command outputs compared with "
          f"their recorded references at {outputs.RTOL:g} relative")

    if rec is None:
        metrics = end_to_end(untraced, setup_s)
        n_times = len(untraced.times())
        speeds = untraced.speeds
        print(f"set-up {', '.join(f'{t:.3f}' for t in setup_times)} s in "
              f"{len(setup_times)} fresh processes")
        print(f"host speed per round, as a share of the reference: median "
              f"{statistics.median(speeds):.3f}, range {min(speeds):.3f}-{max(speeds):.3f}")
        print_metrics(f"end-to-end at the reference host speed over {n_times} times of "
                      f"{untraced.rounds} rounds ({untraced.attempted} commands, "
                      f"{untraced.wall:.2f} host s inside commands):", metrics)
        print(f"  {'failed_frac':<34} {failed / max(attempted, 1):>16.6g} failed/attempted")
        if hasattr(workload, "n_requests"):
            rate = untraced.ops_per_s * workload.n_requests
            print(f"  {'sim_req_per_s':<34} {rate:>16.6g} simulated req/s "
                  f"(arrival generation included)")
        if n_times < MIN_SAMPLES:
            print(f"  note: {n_times} samples; p95 has fewer than ten beyond it")
    else:
        coverage = rec.covered() / traced.wall if traced.wall else 0.0
        problems += trace_problems(traced, coverage)
        if traced.round_counters:
            problems += repeat_problems(args.workload, meta, traced.round_counters[0])
        metrics = per_layer(rec, setup_counters, untraced, traced)
        print_layers(rec, traced.rounds)
        print_metrics(f"per-layer metrics (traced: {traced.attempted} commands in "
                      f"{traced.rounds} rounds; untraced: {untraced.attempted} commands):",
                      metrics)
        path = OUT / "trace" / f"{args.workload}-seed{args.seed}.json"
        rec.chrome_trace(path, meta)
        print(f"spans written to {path.relative_to(ROOT)}")

    for line in problems[:10]:
        print(f"PROBLEM: {line}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def fresh_setup(args) -> tuple[float, list[str]]:
    """Set-up time of a new process running this script with ``--setup-only``."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise SystemExit(f"perfbench: set-up child failed ({done.returncode}):\n"
                         f"{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return result["setup_s"], result["problems"]


def setup_only(args) -> int:
    """Time this fresh process up to the end of its set-up, and print it."""
    from perfbench import workloads

    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    try:
        problems = workloads.make(args.workload, args.seed, work).setup()
        setup_s = (_perf() - _START) * probed_speed(SETUP_PROBES)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"setup_s": setup_s, "problems": problems}))
    return 0


def record(args) -> int:
    from perfbench import outputs, workloads

    work = OUT / "work" / f"record-{os.getpid()}"
    try:
        first = workloads.make("characterize-cold", 0, work)
        first.setup()
        recorded = first.record()
        other = workloads.make("characterize-cold", 1, work)
        other.setup()
        drift = [line for key, out in other.record().items()
                 for line in outputs.diff(recorded[key], out, key)]
        if drift:  # a reference must hold for every seed
            raise SystemExit(f"characterization outputs depend on the seed: {drift[:3]}")
        print(outputs.References.write("characterize", first.config(), recorded))
        held_out = workloads.make("characterize-cold", workloads.HELD_OUT_SEED, work)
        held_out.setup()
        print(outputs.References.write(held_out.reference_name(), held_out.config(),
                                       held_out.record()))
        for name in ("serve-mixed", "serve-fleet"):
            serve = workloads.make(name, 0, work)
            serve.setup()
            print(outputs.References.write(name, serve.config(), serve.record()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record the reference outputs and exit")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _load_program()
    if args.record:
        return record(args)
    return setup_only(args) if args.setup_only else measure(args)


if __name__ == "__main__":
    raise SystemExit(main())
