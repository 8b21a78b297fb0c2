"""Output checks: what each operation must return, and how close.

Every timed operation's result is reduced to plain JSON data (the
simulated numbers a user reads: report markdown, training breakdown,
ingest report, per-tenant completions and latency percentiles, fleet
group stats and scaling events) and compared against a reference at
``RTOL`` relative. Within text, numbers are compared at ``RTOL`` and
everything else must match exactly. Model invariants that hold for any
input (request conservation, stage sums equal to the device total) are
checked on top.

The references live in ``reference/<name>.json`` and are recorded with
``python3 perfbench/run.py --record``. The modelled numbers have never
been validated against a measured execution, so a reference pins them
against *change*, not against ground truth.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

RTOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _close(a: float, b: float) -> bool:
    if a == b:
        return True
    if math.isnan(a) or math.isnan(b):
        return False
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


def _diff_text(ref: str, got: str) -> str | None:
    if ref == got:
        return None
    ref_nums, got_nums = _NUMBER.findall(ref), _NUMBER.findall(got)
    if _NUMBER.split(ref) != _NUMBER.split(got) or len(ref_nums) != len(got_nums):
        return "text differs"
    for a, b in zip(ref_nums, got_nums):
        if not _close(float(a), float(b)):
            return f"number {b} != reference {a}"
    return None


def diff(ref, got, path: str = "") -> list[str]:
    """Mismatches between a reference and an output, as readable lines."""
    where = path or "<root>"
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) != set(got):
            return [f"{where}: keys {sorted(set(got) ^ set(ref))} differ"]
        out: list[str] = []
        for key in ref:
            out.extend(diff(ref[key], got[key], f"{path}.{key}"))
        return out
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{where}: length {len(got)} != reference {len(ref)}"]
        out = []
        for i, (a, b) in enumerate(zip(ref, got)):
            out.extend(diff(a, b, f"{path}[{i}]"))
        return out
    if isinstance(ref, str) and isinstance(got, str):
        problem = _diff_text(ref, got)
        return [f"{where}: {problem}"] if problem else []
    if (isinstance(ref, (int, float)) and isinstance(got, (int, float))
            and not isinstance(ref, bool) and not isinstance(got, bool)):
        return [] if _close(float(ref), float(got)) else [f"{where}: {got!r} != reference {ref!r}"]
    return [] if ref == got else [f"{where}: {got!r} != reference {ref!r}"]


def _require(ok: bool, message: str, problems: list[str]) -> None:
    if not ok:
        problems.append(message)


# -- characterization outputs ---------------------------------------------------


def _stage_sum_ok(report) -> bool:
    """Per-stage device times add up to the device total.

    ``stage_time`` charges each kernel's launch overhead to its stage, so
    the sum is the GPU time plus one launch per kernel.
    """
    launches = report.columns.n * report.device.kernel_launch_overhead * report.slowdown
    return _close(sum(report.stage_time().values()), report.gpu_time + launches)


def report_output(markdown: str) -> tuple[dict, list[str]]:
    problems: list[str] = []
    _require(markdown.startswith("# MMBench characterization:"),
             "report lacks its title", problems)
    return {"markdown": markdown}, problems


def training_output(step) -> tuple[dict, list[str]]:
    problems: list[str] = []
    _require(_stage_sum_ok(step.report), "training stage times do not sum to total",
             problems)
    for pass_name, stages in step.pass_stage_time.items():
        _require(_close(sum(stages.values()), step.pass_time[pass_name]),
                 f"training {pass_name} stages do not sum to the pass time", problems)
    return {
        "total_time": step.total_time,
        "gpu_time": step.gpu_time,
        "host_time": step.host_time,
        "pass_time": step.pass_time,
        "pass_stage_time": step.pass_stage_time,
        "modality_pass_time": step.modality_pass_time,
        "flops": step.flops,
        "forward_flops": step.forward_flops,
        "memory_pressure": step.memory_pressure,
    }, problems


def ingest_output(stored, profile) -> tuple[dict, list[str]]:
    problems: list[str] = []
    report = profile.report
    _require(_stage_sum_ok(report), "ingested stage times do not sum to total", problems)
    ingest = dict(stored.extra["ingest"])
    ingest.pop("source", None)  # a path: differs between checkouts
    return {
        "ingest": ingest,
        "parameters": profile.parameters,
        "flops": profile.flops,
        "total_time": report.total_time,
        "gpu_time": report.gpu_time,
        "host_time": report.host_time,
        "stage_time": report.stage_time(),
        "peak_memory": report.memory.total,
    }, problems


# -- serving outputs ---------------------------------------------------------------


def _tenants(report) -> dict:
    return {name: [s.n_requests, s.p50_latency, s.p95_latency, s.p99_latency,
                   s.slo_attainment]
            for name, s in report.tenant_stats.items()}


def mixed_output(report, issued: int) -> tuple[dict, list[str]]:
    problems: list[str] = []
    faults = report.fault_stats
    _require(faults is not None, "fault plan did not run", problems)
    if faults is None:
        return {}, problems
    _require(faults.completed + faults.shed == faults.issued == issued,
             f"conservation: {faults.completed} completed + {faults.shed} shed "
             f"!= {issued} issued", problems)
    _require(sum(s.n_requests for s in report.tenant_stats.values()) == faults.completed,
             "per-tenant completions do not sum to completed", problems)
    return {
        "makespan": report.makespan,
        "latency": [report.p50_latency, report.p95_latency, report.p99_latency],
        "tenants": _tenants(report),
        "faults": [faults.issued, faults.completed, faults.shed, faults.retries],
        "devices": {slot: [d.batches, d.requests] for slot, d in report.device_stats.items()},
    }, problems


def fleet_output(report, issued: int) -> tuple[dict, list[str]]:
    problems: list[str] = []
    groups = report.group_stats.values()
    _require(report.completed == report.n_requests == issued,
             f"conservation: {report.completed} completed != {issued} issued", problems)
    _require(sum(g.requests for g in groups) == issued,
             "per-group requests do not sum to issued", problems)
    _require(sum(s.n_requests for s in report.tenant_stats.values()) == issued,
             "per-tenant completions do not sum to issued", problems)
    return {
        "makespan": report.makespan,
        "latency": [report.p50_latency, report.p95_latency, report.p99_latency],
        "tenants": _tenants(report),
        "groups": {g.group: [g.replicas, g.peak_replicas, g.mean_replicas, g.batches,
                             g.requests, g.hop_batches, g.hop_time]
                   for g in groups},
        "scaling": [[e.time, e.group, e.before, e.after, e.reason]
                    for e in report.scaling_events],
    }, problems


# -- references -----------------------------------------------------------------------


def _rounded(value):
    """Shorten floats to 12 significant digits for storage (exact well
    within ``RTOL``)."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value


class References:
    """Recorded reference outputs by operation key."""

    def __init__(self, name: str, config: dict):
        self.path = REFERENCE_DIR / f"{name}.json"
        self.recorded: dict = {}
        self.problem: str | None = None
        self.checked = 0
        if not self.path.exists():
            self.problem = f"no {self.path.name}; record it with --record"
            return
        payload = json.loads(self.path.read_text())
        if payload.get("config") != config:
            self.problem = (f"{self.path.name} was recorded for another "
                            f"configuration; re-record it with --record")
        else:
            self.recorded = payload["outputs"]

    def check(self, key: str, output: dict) -> list[str]:
        if self.problem:
            return [self.problem]
        ref = self.recorded.get(key)
        if ref is None:
            return [f"{key}: no recorded reference; re-record with --record"]
        self.checked += 1
        # Round-trip through JSON so tuples/ints compare as stored ones do.
        output = json.loads(json.dumps(output))
        return [f"{key}: {line}" for line in diff(ref, output)[:5]]

    @staticmethod
    def write(name: str, config: dict, outputs: dict) -> Path:
        path = REFERENCE_DIR / f"{name}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"config": config,
                   "outputs": {k: _rounded(json.loads(json.dumps(v)))
                               for k, v in sorted(outputs.items())}}
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        return path
