"""``mmbench`` command-line interface.

Mirrors the paper's usage model (Fig. 2: model choice and measurement
options as command-line parameters)::

    mmbench list
    mmbench run --workload avmnist --fusion tensor --batch-size 40
    mmbench run --workload mmimdb --unimodal image --device nano
    mmbench run --workload transfuser --backend eager   # dense numpy capture
    mmbench analyze stage-time --device 2080ti
    mmbench analyze batch-size --cache-dir ~/.cache/mmbench
    mmbench serve --workload avmnist --arrival-rate 100 --policy adaptive
    mmbench serve --mix heavy-head --arrival-rate 2000 --devices 2080ti,orin,nano

Trace-capturing subcommands accept ``--backend {eager,meta}`` (meta — the
default — propagates shapes analytically and emits an event-for-event
identical trace) and ``--cache-dir DIR`` (content-addressed on-disk trace
cache, shared across runs); each prints a trace-store cache-stats line.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from types import SimpleNamespace

from repro.core.suite import BenchmarkSuite, RunConfig
from repro.profiling.report import format_table
from repro.workloads.registry import WORKLOADS, list_workloads


def _configure_store(args):
    """Honor ``--cache-dir`` by re-pointing the process-wide trace store."""
    from repro.trace.store import configure_default_store, default_store

    if getattr(args, "cache_dir", None):
        return configure_default_store(args.cache_dir)
    return default_store()


def _print_store_stats() -> None:
    from repro.trace.store import default_store

    print(default_store().stats_line())


def _validate_common(args) -> None:
    """Fail fast, with one clean line, on anything the user typed wrong:
    each flag below, in every subcommand but ``serve`` that has it."""
    from repro.hw.device import get_device
    from repro.nn.optim import OPTIMIZERS
    from repro.workloads.registry import get_workload

    if hasattr(args, "device"):
        get_device(args.device)  # KeyError with the available names on typo
    info = get_workload(args.workload) if hasattr(args, "workload") else None
    if info is not None and getattr(args, "fusion", None) is not None:
        if args.fusion not in info.fusions:
            raise KeyError(f"unknown fusion {args.fusion!r} for {args.workload}; "
                           f"available: {sorted(info.fusions)}")
    if info is not None and getattr(args, "unimodal", None) is not None:
        if args.unimodal not in info.modalities:
            raise KeyError(f"unknown modality {args.unimodal!r} for {args.workload}; "
                           f"available: {list(info.modalities)}")
    # `export` reads --optimizer only for --training exports.
    if hasattr(args, "optimizer") and getattr(args, "training", True) \
            and args.optimizer not in OPTIMIZERS:
        raise KeyError(f"unknown optimizer {args.optimizer!r}; "
                       f"available: {sorted(OPTIMIZERS)}")
    if getattr(args, "batch_size", None) is not None and args.batch_size <= 0:
        raise ValueError(f"--batch-size must be positive, got {args.batch_size}")
    if getattr(args, "seed", 0) < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    if getattr(args, "n_requests", 1) <= 0:
        raise ValueError(f"--n-requests must be positive, got {args.n_requests}")
    _check_positive("--arrival-rate", getattr(args, "arrival_rate", None))


def _cmd_list(_args, _checked) -> int:
    rows = []
    for name in list_workloads():
        info = WORKLOADS[name]
        rows.append([
            name, info.domain, info.model_size,
            ",".join(info.modalities), ",".join(info.fusions), info.task_kind,
        ])
    print(format_table(
        ["workload", "domain", "size", "modalities", "fusions", "task"], rows,
        title="MMBench workloads (Table 3)",
    ))
    return 0


def _cmd_run(args, _checked) -> int:
    _configure_store(args)
    config = RunConfig(
        workload=args.workload,
        fusion=args.fusion,
        unimodal=args.unimodal,
        batch_size=args.batch_size,
        device=args.device,
        seed=args.seed,
        backend=args.backend,
    )
    suite = BenchmarkSuite(args.device)
    result = suite.run_inference(config)
    print(suite.summarize(result))
    _print_store_stats()
    return 0


def _cmd_report(args, _checked) -> int:
    _configure_store(args)
    from repro.core.report import characterization_report

    text = characterization_report(args.workload, fusion=args.fusion,
                                   batch_size=args.batch_size,
                                   backend=args.backend)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    _print_store_stats()
    return 0


def _parse_devices(spec: str) -> tuple[str, ...]:
    """Split a ``--devices`` list into known device names, rejecting empty
    components and typos up front."""
    from repro.hw.device import get_device

    devices = tuple(d.strip() for d in spec.split(","))
    if not spec.strip() or any(not d for d in devices):
        raise ValueError(f"--devices must be a comma-separated list of device "
                         f"names, got {spec!r}")
    for device in devices:
        get_device(device)
    return devices


def _parse_sweep(spec: str | None) -> tuple[int, ...] | None:
    """Split a ``--sweep B1,B2,...`` list into positive batch sizes."""
    if spec is None:
        return None
    try:
        batches = tuple(int(b) for b in spec.split(","))
    except ValueError:
        raise ValueError(f"--sweep must be comma-separated ints, "
                         f"got {spec!r}") from None
    if any(b <= 0 for b in batches):
        raise ValueError(f"--sweep batch sizes must be positive, got {spec!r}")
    return batches


def _parse_workloads(flag: str, spec: str) -> tuple[str, ...]:
    """Split a workload list, rejecting duplicates and unknown names."""
    from repro.workloads.registry import get_workload

    workloads = tuple(spec.split(","))
    if len(set(workloads)) != len(workloads):
        raise ValueError(f"duplicate workloads in {flag}: {','.join(workloads)}")
    for workload in workloads:
        get_workload(workload)
    return workloads


def _check_positive(flag: str, value: float | None) -> None:
    """Reject a non-positive or non-finite float flag: argparse parses
    ``nan`` and ``inf``, and neither can time an event. ``None`` means
    the flag was not given."""
    if value is not None and not (math.isfinite(value) and value > 0):
        raise ValueError(f"{flag} must be positive and finite, got {value}")


def _build_fault_inputs(args, devices):
    """Resolve the serve fault flags into a validated ``(plan, retry)`` pair.

    Raises :class:`~repro.serving.faults.FaultPlanError` (a ``ValueError``)
    on any malformed input, so the serve check turns it into a clean
    exit-2 line instead of a traceback mid-run.
    """
    import os

    from repro.serving import (RetryPolicy, chaos_plan, load_fault_plan,
                               validate_fault_plan)
    from repro.serving.faults import CHAOS_SCENARIO_NAMES, FaultPlanError

    if args.retry_max < 0:
        raise ValueError(f"--retry-max must be non-negative, got {args.retry_max}")
    _check_positive("--retry-backoff", args.retry_backoff)
    _check_positive("--request-deadline", args.request_deadline)
    plan = None
    if args.faults is not None:
        if args.faults in CHAOS_SCENARIO_NAMES:
            if args.arrival_rate is None:
                raise ValueError(
                    f"--faults {args.faults} needs --arrival-rate to size its "
                    "horizon (n_requests / rate)")
            horizon = args.n_requests / args.arrival_rate
            plan = chaos_plan(args.faults, devices, horizon, seed=args.seed)
        elif os.path.exists(args.faults):
            plan = load_fault_plan(args.faults)
        else:
            raise FaultPlanError(
                f"--faults must name a chaos scenario "
                f"({', '.join(CHAOS_SCENARIO_NAMES)}) or an existing plan "
                f"JSON file, got {args.faults!r}")
        validate_fault_plan(plan, devices)
    retry = None
    if plan is not None or args.request_deadline is not None:
        retry = RetryPolicy(max_retries=args.retry_max,
                            backoff_base=args.retry_backoff,
                            deadline=args.request_deadline)
    return plan, retry


#: The mode-specific serve flags each mode reads. Every other serve flag
#: applies to all three modes; ``--mix`` also picks the scenario of a
#: ``--fleet`` run.
_SERVE_MODE_FLAGS = {
    "single": ("--workload", "--fusion", "--devices"),
    "mix": ("--workloads", "--devices", "--finetune-workloads",
            "--finetune-share", "--degrade-after"),
    "fleet": ("--workloads", "--groups", "--autoscale", "--autoscale-min",
              "--autoscale-max", "--hop-bytes"),
}
_SERVE_MODE_NAMES = {"single": "a single-workload serve", "mix": "--mix",
                     "fleet": "--fleet"}


def _check_serve(args) -> SimpleNamespace:
    """Validate every serve flag in one pass, whatever the mode.

    A mode-specific flag moved off its default in a mode that never reads
    it is an error, not a silent no-op. Returns what the run loop needs.
    """
    from repro.hw.device import get_device
    from repro.lint import check, lint_fleet
    from repro.serving import (POLICY_NAMES, get_scenario, make_policy,
                               parse_autoscale, parse_groups)

    mode = "fleet" if args.fleet else "mix" if args.mix is not None else "single"
    defaults = vars(build_parser().parse_args(["serve"]))
    for flag in dict.fromkeys(sum(_SERVE_MODE_FLAGS.values(), ())):
        dest = flag[2:].replace("-", "_")
        if flag not in _SERVE_MODE_FLAGS[mode] \
                and getattr(args, dest) != defaults[dest]:
            readers = [_SERVE_MODE_NAMES[m] for m, flags
                       in _SERVE_MODE_FLAGS.items() if flag in flags]
            raise ValueError(
                f"{flag} applies to {' and '.join(readers)} only; "
                f"{_SERVE_MODE_NAMES[mode]} reads "
                f"{', '.join(_SERVE_MODE_FLAGS[mode])}")
    if mode == "fleet" and args.groups is None:
        raise ValueError("--fleet needs --groups DEV:REPLICAS[:POOL],...")
    if args.n_requests <= 0:
        raise ValueError(f"--n-requests must be positive, got {args.n_requests}")
    _check_positive("--arrival-rate", args.arrival_rate)
    _check_positive("--slo", args.slo)
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")

    def policy_factory(name):
        return lambda _workload: make_policy(
            name, batch_size=args.batch_size, timeout=args.timeout,
            slo=args.slo, max_batch=args.max_batch)

    run = SimpleNamespace(mode=mode, scenario=args.mix or "uniform",
                          policies=args.policy.split(","),
                          policy_factory=policy_factory, finetune=(),
                          groups=None, autoscale=None)
    # Every policy's constructor checks the flags it reads, whichever
    # policies are listed; a listed unknown name still fails.
    for name in dict.fromkeys([*run.policies, *POLICY_NAMES]):
        policy_factory(name)("probe")
    if mode == "single":
        args.workload = args.workload or "avmnist"
        # The same workload/fusion check as every other subcommand.
        _validate_common(SimpleNamespace(workload=args.workload,
                                         fusion=args.fusion))
    else:
        if get_scenario(run.scenario).needs_rate and args.arrival_rate is None:
            raise ValueError(f"--mix {run.scenario} needs --arrival-rate "
                             "(its traffic shape is time-varying)")
        run.workloads = _parse_workloads(
            "--workloads", args.workloads or ",".join(list_workloads()))
    if mode == "fleet":
        run.groups = parse_groups(args.groups)
        run.devices = tuple(group.device for group in run.groups)
        for device in run.devices:
            get_device(device)
        if not (math.isfinite(args.hop_bytes) and args.hop_bytes >= 0):
            raise ValueError(f"--hop-bytes must be non-negative and finite, "
                             f"got {args.hop_bytes}")
        if args.autoscale is not None:
            run.autoscale = parse_autoscale(args.autoscale,
                                            min_replicas=args.autoscale_min,
                                            max_replicas=args.autoscale_max)
    else:
        run.devices = _parse_devices(args.devices)
    if mode == "mix":
        if not 0.0 < args.finetune_share < 1.0:
            raise ValueError(f"--finetune-share must be in (0, 1), got "
                             f"{args.finetune_share}")
        if args.mix == "finetune" or args.finetune_workloads is not None:
            # Background training jobs: the named workloads (default: the
            # first tenant) fine-tune behind the inference traffic.
            run.finetune = _parse_workloads(
                "--finetune-workloads", args.finetune_workloads or run.workloads[0])
        _check_positive("--degrade-after", args.degrade_after)
    # A fault plan names devices; under --fleet each group is one device.
    run.faults, run.retry = _build_fault_inputs(args, run.devices)
    if mode == "fleet":
        check(lint_fleet(run.groups, autoscale=run.autoscale, faults=run.faults,
                         source="mmbench serve --fleet"),
              what="fleet configuration")
    # Fault runs degrade by default: sustained pressure past 4x the SLO
    # flips multi-modal tenants to their shed-encoder serving mode.
    run.degrade_after = args.degrade_after
    if mode == "mix" and run.degrade_after is None and run.faults is not None:
        run.degrade_after = 4.0 * args.slo
    return run


def _cmd_serve(args, run) -> int:
    """Every serve mode in one loop: each listed policy runs against the
    identical stream (same seed), with a fresh router and fresh policies."""
    from repro.serving import (
        ProfiledCostModel,
        degraded_mode_for,
        fleet_summary,
        make_finetune_jobs,
        make_router,
        make_tenants,
        mixed_serving_summary,
        simulate,
        simulate_fleet,
        simulate_mixed,
    )
    from repro.serving.report import serving_summary
    from repro.workloads.registry import get_workload

    _configure_store(args)
    if run.mode == "single":
        cost = ProfiledCostModel(args.workload, args.fusion, seed=args.seed,
                                 backend=args.backend)
    finetune = make_finetune_jobs(
        run.finetune, share=args.finetune_share,
        seed=args.seed, backend=args.backend or "meta",
    ) if run.finetune else None
    reports = {}
    for name in run.policies:
        factory = run.policy_factory(name)
        if run.mode == "single":
            policy = factory(args.workload)
            reports[policy.name] = simulate(
                cost, policy, devices=run.devices, n_requests=args.n_requests,
                arrival_rate=args.arrival_rate, router=make_router(args.router),
                seed=args.seed, faults=run.faults, retry=run.retry,
            )
            continue
        tenants = make_tenants(run.workloads, policy_factory=factory,
                               slo=args.slo, seed=args.seed,
                               backend=args.backend)
        if run.mode == "mix":
            for spec in tenants:
                # Single-modality tenants have no encoder to shed.
                if run.degrade_after is not None and \
                        len(get_workload(spec.name).modalities) > 1:
                    spec.degraded = degraded_mode_for(
                        spec.name, enter_wait=run.degrade_after,
                        seed=args.seed, backend=args.backend or "meta")
            report = simulate_mixed(
                tenants, devices=run.devices, n_requests=args.n_requests,
                arrival_rate=args.arrival_rate, scenario=args.mix,
                router=make_router(args.router), finetune=finetune,
                seed=args.seed, faults=run.faults, retry=run.retry,
            )
            print(f"mix={args.mix} policy={name} "
                  f"workloads={','.join(run.workloads)} "
                  f"devices={','.join(run.devices)}")
            print(mixed_serving_summary(report))
        else:
            report = simulate_fleet(
                tenants, run.groups, n_requests=args.n_requests,
                arrival_rate=args.arrival_rate, scenario=run.scenario,
                router=make_router(args.router), autoscale=run.autoscale,
                faults=run.faults, retry=run.retry, hop_bytes=args.hop_bytes,
                seed=args.seed,
            )
            print(f"fleet mix={run.scenario} policy={name} "
                  f"workloads={','.join(run.workloads)} groups={args.groups}")
            print(fleet_summary(report))
        print()
    if run.mode == "single":
        print(f"workload={args.workload} fusion={args.fusion or 'default'} "
              f"devices={','.join(run.devices)}")
        print(serving_summary(reports, slo=args.slo))
    _print_store_stats()
    return 0


def _check_train_analyze(args):
    workloads = (args.workloads.split(",") if args.workloads
                 else [args.workload])
    for workload in workloads:
        args.workload = workload
        _validate_common(args)
    if args.sweep is not None and len(workloads) != 1:
        raise ValueError("--sweep takes exactly one workload")
    sweep = _parse_sweep(args.sweep)
    devices = _parse_devices(args.devices) if sweep is not None else None
    return workloads, sweep, devices


def _cmd_train_analyze(args, checked) -> int:
    """Per-pass / per-stage breakdown of traced training steps."""
    workloads, sweep_batches, devices = checked
    _configure_store(args)
    from repro.core.analysis.training import (
        traced_vs_synthetic,
        training_batch_sweep,
        training_step_analysis,
    )

    if sweep_batches is not None:
        grid = training_batch_sweep(
            workloads[0], batches=sweep_batches, devices=devices,
            optimizer=args.optimizer, seed=args.seed, backend=args.backend)
        rows = [[b, dev, f"{cell.total_time * 1e3:.3f} ms",
                 f"{cell.samples_per_second:,.0f}/s",
                 f"{cell.pass_share().get('backward', 0.0):.0%}",
                 f"{cell.memory_pressure:.2f}"]
                for (b, dev), cell in grid.items()]
        print(format_table(
            ["batch", "device", "step time", "samples", "bwd share", "mem pressure"],
            rows, title=f"Training batch-size sweep: {workloads[0]} ({args.optimizer})"))
        _print_store_stats()
        return 0

    data = training_step_analysis(
        workloads=workloads, device=args.device, batch_size=args.batch_size,
        optimizer=args.optimizer, seed=args.seed, backend=args.backend)
    rows = []
    for workload, b in data.items():
        share = b.pass_share()
        rows.append([
            workload, f"{b.total_time * 1e3:.3f} ms",
            f"{share.get('forward', 0.0):.0%}", f"{share.get('loss', 0.0):.0%}",
            f"{share.get('backward', 0.0):.0%}",
            f"{share.get('optimizer', 0.0):.0%}", f"{b.flops_ratio:.2f}x",
        ])
    print(format_table(
        ["workload", "step time", "fwd", "loss", "bwd", "opt", "flops vs fwd"],
        rows, title=f"Traced training step ({args.optimizer}, "
                    f"batch {args.batch_size}, {args.device})"))
    for workload, b in data.items():
        stages = b.pass_stage_time
        stage_rows = [[pass_name] +
                      [f"{stages[pass_name].get(s, 0.0) * 1e3:.3f} ms"
                       for s in ("encoder", "fusion", "head", "optimizer")]
                      for pass_name in stages]
        print(format_table(
            ["pass", "encoder", "fusion", "head", "optimizer"], stage_rows,
            title=f"{workload}: per-stage time by pass"))
    if args.cross_check:
        rows = []
        for workload in workloads:
            check = traced_vs_synthetic(
                workload, batch_size=args.batch_size, optimizer=args.optimizer,
                seed=args.seed, backend=args.backend)
            rows.append([workload, f"{check.traced_ratio:.2f}x",
                         f"{check.synthetic_ratio:.2f}x", f"{check.agreement:.2f}"])
        print(format_table(
            ["workload", "traced ratio", "synthetic ratio", "traced/synthetic"],
            rows, title="Traced vs synthetic (2x-heuristic) cross-check"))
    _print_store_stats()
    return 0


def _cmd_analyze(args, _checked) -> int:
    _configure_store(args)
    from repro.core import analysis

    name = args.analysis
    if name == "stage-time":
        data = analysis.stage_time_analysis(device=args.device, backend=args.backend)
        rows = [[w] + [f"{t * 1e3:.3f} ms" for t in stages.values()]
                for w, stages in data.items()]
        print(format_table(["workload", "encoder", "fusion", "head"], rows,
                           title="Figure 6: per-stage execution time"))
    elif name == "kernel-breakdown":
        data = analysis.kernel_breakdown_analysis(device=args.device,
                                                  backend=args.backend)
        rows = []
        for workload, stages in data.items():
            for stage, cats in stages.items():
                top = max(cats, key=cats.get)
                rows.append([workload, stage, top, f"{cats[top]:.0%}"])
        print(format_table(["workload", "stage", "dominant kernel", "share"], rows,
                           title="Figure 8: dominant kernel category per stage"))
    elif name == "batch-size":
        results = analysis.batch_size_study(device=args.device, backend=args.backend)
        rows = [[r.variant, r.batch_size, f"{r.gpu_time_total:.3f} s",
                 f"{r.inference_time_total:.3f} s",
                 f"{r.kernel_size_distribution['>100']:.0%} large kernels"]
                for r in results]
        print(format_table(["variant", "batch", "GPU time", "inference time", "kernel mix"],
                           rows, title="Figure 12: batch size case study (10k tasks)"))
    else:  # "edge": argparse allows no other choice
        results = analysis.edge_latency_study(backend=args.backend)
        rows = [[r.device, r.variant, r.batch_size, f"{r.inference_time:.2f} s",
                 f"{r.memory_pressure:.2f}"] for r in results]
        print(format_table(["device", "variant", "batch", "inference time", "mem pressure"],
                           rows, title="Figure 14: edge migration"))
    _print_store_stats()
    return 0


def _cmd_export(args, _checked) -> int:
    """Serialize a built-in workload's trace to execution-graph JSON."""
    store = _configure_store(args)
    from repro.export.graph import stored_to_graph, write_graph

    if args.training:
        stored = store.get_or_capture_training(
            args.workload, fusion=args.fusion, unimodal=args.unimodal,
            batch_size=args.batch_size, seed=args.seed, backend=args.backend,
            optimizer=args.optimizer)
    else:
        stored = store.get_or_capture(
            args.workload, fusion=args.fusion, unimodal=args.unimodal,
            batch_size=args.batch_size, seed=args.seed, backend=args.backend)
    graph = stored_to_graph(stored, batch_size=args.batch_size)
    path = write_graph(graph, args.output)
    print(f"wrote {path} ({len(graph['nodes'])} nodes, "
          f"batch {args.batch_size}, {stored.model_name})")
    _print_store_stats()
    return 0


def _check_ingest(args):
    from repro.trace.ingest import OpMappingRegistry

    _validate_common(args)
    _check_positive("--slo", args.slo)
    devices = _parse_devices(args.devices) if args.devices else (args.device,)
    sweep_batches = _parse_sweep(args.sweep)
    registry = None
    if args.op_map:
        import json as _json

        try:
            with open(args.op_map) as fh:
                mapping = _json.load(fh)
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot read --op-map {args.op_map}: {exc}") from None
        if not isinstance(mapping, dict):
            raise ValueError("--op-map must be a JSON object of "
                             "{pattern: category}")
        registry = OpMappingRegistry.from_mapping(mapping)
    return devices, sweep_batches, registry


def _cmd_ingest(args, checked) -> int:
    """Price an external execution-graph JSON end-to-end."""
    from repro.lint import LintFailure
    from repro.profiling.profiler import MMBenchProfiler, price_batches
    from repro.trace.ingest import IngestError, IngestReport

    devices, sweep_batches, registry = checked
    store = _configure_store(args)

    try:
        stored = store.get_or_ingest(args.graph, registry=registry)
    except (IngestError, LintFailure) as exc:  # the graph, not the program
        print(f"ingest failed: {exc}", file=sys.stderr)
        return 2

    # Provenance rides in StoredTrace.extra so warm store hits still
    # surface the unknown-op fraction.
    report = IngestReport.from_dict(stored.extra["ingest"])
    base_batch = int(stored.extra.get("batch_size", 1))
    for line in report.summary_lines():
        print(line)

    batch_size = args.batch_size or base_batch
    profiler = MMBenchProfiler(args.device)

    if args.report or not (args.sweep or args.serve):
        from repro.profiling.report import profile_summary

        result = profiler.profile_stored(stored, batch_size)
        print()
        print(profile_summary(result))

    if sweep_batches is not None:
        rows = []
        swept = price_batches(stored, base_batch, sweep_batches, devices)
        for b, reports in zip(sweep_batches, swept):
            for device, priced in zip(devices, reports):
                rows.append([b, device, f"{priced.total_time * 1e3:.3f} ms",
                             f"{b / priced.total_time:,.0f}/s",
                             f"{priced.memory_pressure:.2f}"])
        print()
        print(format_table(
            ["batch", "device", "latency", "throughput", "mem pressure"], rows,
            title=f"Ingested batch sweep: {stored.model_name}"))

    if args.serve:
        from repro.serving import TraceCostModel, make_policy, make_router, simulate
        from repro.serving.report import serving_summary

        cost = TraceCostModel(stored, base_batch_size=base_batch)
        policy = make_policy(args.policy, batch_size=batch_size, slo=args.slo)
        serve_report = simulate(
            cost, policy, devices=devices, n_requests=args.n_requests,
            arrival_rate=args.arrival_rate, router=make_router(args.router),
            seed=args.seed,
        )
        print()
        print(f"serving {stored.model_name} devices={','.join(devices)}")
        print(serving_summary({policy.name: serve_report}, slo=args.slo))

    _print_store_stats()
    return 0


def _finish_lint(report, args) -> int:
    """Shared tail of `mmbench lint` and `mmbench store lint`: baseline,
    rendering, exit code."""
    from repro.lint import load_baseline, write_baseline

    if getattr(args, "write_baseline", None):
        count = write_baseline(args.write_baseline, report)
        print(f"wrote {count} suppression(s) to {args.write_baseline}",
              file=sys.stderr)
    if getattr(args, "baseline", None):
        report = report.apply_baseline(load_baseline(args.baseline))
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render())
    return report.exit_code(strict=args.strict)


def _cmd_lint(args, _checked) -> int:
    """Statically analyze traces, graphs, fault plans and store entries."""
    import os

    from repro.lint import LintReport, lint_path, lint_trace

    store = _configure_store(args)
    options = {"unknown_threshold": args.unknown_threshold}
    merged = LintReport()
    for target in args.targets:
        if Path(target).exists():
            try:
                merged.extend(lint_path(target, **options))
            except (ValueError, KeyError) as exc:
                print(f"lint: {target}: {exc}", file=sys.stderr)
                return 2
            continue
        if target in WORKLOADS:
            stored = store.get_or_capture(
                target, batch_size=args.batch_size, backend=args.backend)
            merged.extend(lint_trace(stored, source=f"workload:{target}",
                                     **options))
            continue
        # Neither a file nor a workload: try a store digest prefix.
        cache_dir = args.cache_dir or os.environ.get("MMBENCH_CACHE_DIR")
        try:
            stored = store.load_digest(target)
        except KeyError as exc:
            hint = ("" if cache_dir
                    else " (store keys need --cache-dir or $MMBENCH_CACHE_DIR)")
            print(f"lint: {target}: not a file, workload or store key: "
                  f"{exc.args[0]}{hint}", file=sys.stderr)
            return 2
        merged.extend(lint_trace(stored, source=f"store:{target}", **options))
    return _finish_lint(merged, args)


def _cmd_store(args, _checked) -> int:
    """Corpus operations on the on-disk trace store."""
    import os

    from repro.trace.store import TraceStore

    cache_dir = args.cache_dir or os.environ.get("MMBENCH_CACHE_DIR")
    if not cache_dir:
        print("mmbench store needs --cache-dir (or $MMBENCH_CACHE_DIR)",
              file=sys.stderr)
        return 2
    store = TraceStore(cache_dir)

    if args.action == "ls":
        rows = []
        for info in store.entries():
            key = info["key"] or {}
            what = (key.get("workload", "?") if info["status"] == "ok" else "?")
            mode = key.get("mode", "?")
            if isinstance(mode, str) and mode.startswith("ingest:"):
                mode = "ingest"
            rows.append([
                info["digest"][:12], what, mode, key.get("batch_size", "-"),
                key.get("backend", "-"), info["n"],
                f"{info['bytes'] / 1024:.1f} KiB",
                ("corrupt" if info["status"] == "corrupt"
                 else "stale" if info["stale"] else "ok"),
            ])
        if not rows:
            print(f"trace store [{cache_dir}]: empty")
            return 0
        print(format_table(
            ["digest", "workload", "mode", "batch", "backend", "kernels",
             "size", "status"],
            rows, title=f"trace store [{cache_dir}]"))
        return 0

    if args.action == "stats":
        infos = store.entries()
        total_bytes = sum(info["bytes"] for info in infos)
        kernels = sum(info["n"] for info in infos)
        stale = sum(bool(info["stale"]) for info in infos)
        corrupt = sum(info["status"] == "corrupt" for info in infos)
        interned = len(store._interner) if store._interner is not None else 0
        print(f"trace store [{cache_dir}]: {len(infos)} "
              f"entr{'y' if len(infos) == 1 else 'ies'}")
        print(f"  {total_bytes / 1e6:.2f} MB on disk, {kernels:,} kernels, "
              f"{interned} interned strings")
        print(f"  {stale} stale (old code fingerprint), {corrupt} corrupt")
        return 0

    if args.action == "gc":
        removed = store.gc(stale=not args.keep_stale)
        print(f"gc [{cache_dir}]: removed "
              f"{removed['stale']} stale, {removed['corrupt']} quarantined, "
              f"{removed['unreadable']} unreadable, {removed['tmp']} torn tmp")
        return 0

    # "lint": the last of the four actions argparse allows
    from repro.lint import LintReport, lint_trace

    merged = LintReport()
    skipped = 0
    for info in store.entries():
        if info["status"] != "ok":
            skipped += 1
            continue
        try:
            entry = store.load_digest(info["digest"])
        except KeyError:
            skipped += 1
            continue
        key = info["key"] or {}
        merged.extend(lint_trace(
            entry,
            source=f"store:{info['digest'][:12]} "
                   f"({key.get('workload', '?')})"))
    if skipped:
        print(f"lint [{cache_dir}]: skipped {skipped} unreadable "
              f"entr{'y' if skipped == 1 else 'ies'}", file=sys.stderr)
    return _finish_lint(merged, args)


def _add_lint_options(sub_parser) -> None:
    """Severity gating + output flags shared by `lint` and `store lint`."""
    sub_parser.add_argument(
        "--strict", action="store_true",
        help="warnings also fail the exit code (errors always do)")
    sub_parser.add_argument(
        "--format", default="human", choices=["human", "json"],
        help="render diagnostics for people or for machines")
    sub_parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="suppress diagnostics listed in FILE (codes or fingerprints)")
    sub_parser.add_argument(
        "--write-baseline", default=None, metavar="FILE",
        help="adopt every current diagnostic into FILE, then ratchet")


def _add_trace_options(sub_parser) -> None:
    """Backend + cache flags shared by every trace-capturing subcommand."""
    sub_parser.add_argument(
        "--backend", default="meta", choices=["eager", "meta"],
        help="trace-capture backend: 'meta' propagates shapes analytically "
             "(order-of-magnitude faster, event-identical to eager)")
    sub_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist captured traces to DIR (content-addressed; reused "
             "across runs; also honors $MMBENCH_CACHE_DIR)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mmbench",
                                     description="MMBench reproduction CLI")
    parser.set_defaults(check=lambda _args: None)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the nine workloads").set_defaults(fn=_cmd_list)

    run = sub.add_parser("run", help="profile one workload")
    run.add_argument("--workload", default="avmnist", choices=list_workloads())
    run.add_argument("--fusion", default=None)
    run.add_argument("--unimodal", default=None, metavar="MODALITY")
    run.add_argument("--batch-size", type=int, default=8)
    run.add_argument("--device", default="2080ti")
    run.add_argument("--seed", type=int, default=0)
    _add_trace_options(run)
    run.set_defaults(fn=_cmd_run, check=_validate_common)

    report = sub.add_parser("report", help="full characterization report (markdown)")
    report.add_argument("--workload", default="avmnist", choices=list_workloads())
    report.add_argument("--fusion", default=None)
    report.add_argument("--batch-size", type=int, default=32)
    report.add_argument("-o", "--output", default=None, metavar="FILE")
    _add_trace_options(report)
    report.set_defaults(fn=_cmd_report, check=_validate_common)

    serve = sub.add_parser(
        "serve", help="open-loop serving simulation with dynamic batching")
    # Default None so --mix/--fleet can reject an explicit --workload
    # instead of silently ignoring it; a single-workload serve falls back
    # to avmnist.
    serve.add_argument("--workload", default=None, choices=list_workloads())
    serve.add_argument("--fusion", default=None)
    serve.add_argument("--mix", default=None, metavar="SCENARIO",
                       help="serve a multi-tenant workload mix instead of one "
                            "workload: uniform, heavy-head, diurnal, bursty, "
                            "finetune")
    serve.add_argument("--workloads", default=None, metavar="W1,W2,...",
                       help="tenants of the --mix run (default: all nine)")
    serve.add_argument("--finetune-workloads", default=None, metavar="W1,W2,...",
                       help="background fine-tuning jobs sharing the devices "
                            "(default for --mix finetune: the first tenant)")
    serve.add_argument("--finetune-share", type=float, default=0.25,
                       help="aggregate device share the fine-tuning jobs hold")
    serve.add_argument("--arrival-rate", type=float, default=None, metavar="REQ_PER_S",
                       help="Poisson arrival rate (default: closed batch, all at t=0)")
    serve.add_argument("--n-requests", type=int, default=5_000)
    serve.add_argument("--policy", default="fixed,adaptive",
                       help="comma-separated: fixed, timeout, adaptive")
    serve.add_argument("--batch-size", type=int, default=40,
                       help="batch cap for the fixed/timeout policies")
    serve.add_argument("--timeout", type=float, default=2e-3,
                       help="batch-formation timeout (seconds) for the timeout policy")
    serve.add_argument("--slo", type=float, default=50e-3,
                       help="p99 latency SLO (seconds); drives the adaptive policy")
    serve.add_argument("--max-batch", type=int, default=512,
                       help="largest batch the adaptive policy may form")
    serve.add_argument("--devices", default="2080ti,nano",
                       help="comma-separated device models to route across")
    serve.add_argument("--router", default="earliest-finish",
                       choices=["earliest-finish", "round-robin"])
    serve.add_argument("--faults", default=None, metavar="SCENARIO|PLAN.json",
                       help="inject a fault plan: a named chaos scenario "
                            "(single-failure, rolling-restart, "
                            "thermal-brownout, flaky-device) or a plan JSON "
                            "file (see docs/serving.md)")
    serve.add_argument("--retry-max", type=int, default=3,
                       help="aborted-request retry budget before shedding")
    serve.add_argument("--retry-backoff", type=float, default=2e-3,
                       help="base retry backoff (seconds; doubles per attempt)")
    serve.add_argument("--request-deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="shed any request in the system longer than this "
                            "(activates shedding even without --faults)")
    serve.add_argument("--degrade-after", type=float, default=None,
                       metavar="SECONDS",
                       help="--mix only: tenants shed their costliest modality "
                            "encoder (degraded mode) once their oldest queued "
                            "request waits this long")
    serve.add_argument("--fleet", action="store_true",
                       help="fleet-scale simulator: homogeneous device groups "
                            "with vectorized event epochs (needs --groups)")
    serve.add_argument("--groups", default=None,
                       metavar="DEV:REPLICAS[:POOL],...",
                       help="--fleet device groups, e.g. "
                            "2080ti:64,orin:32,nano:16 (POOL = autoscale "
                            "ceiling, default REPLICAS)")
    serve.add_argument("--autoscale", default=None,
                       metavar="METRIC:THRESHOLD[:INTERVAL[:COOLDOWN]]",
                       help="--fleet reactive autoscaling, e.g. queue:64 or "
                            "p99:0.1:0.05:0.25 (metric: queue depth or "
                            "windowed p99 latency)")
    serve.add_argument("--autoscale-min", type=int, default=1,
                       metavar="REPLICAS",
                       help="per-group autoscale floor (default 1)")
    serve.add_argument("--autoscale-max", type=int, default=None,
                       metavar="REPLICAS",
                       help="per-group autoscale ceiling (default: the "
                            "group's pool)")
    serve.add_argument("--hop-bytes", type=float, default=0.0,
                       metavar="BYTES",
                       help="--fleet per-request payload priced as an h2d "
                            "transfer whenever a tenant's batch moves to a "
                            "different group")
    serve.add_argument("--seed", type=int, default=0)
    _add_trace_options(serve)
    serve.set_defaults(fn=_cmd_serve, check=_check_serve)

    export = sub.add_parser(
        "export", help="serialize a workload trace to execution-graph JSON")
    export.add_argument("--workload", default="avmnist", choices=list_workloads())
    export.add_argument("--fusion", default=None)
    export.add_argument("--unimodal", default=None, metavar="MODALITY")
    export.add_argument("--batch-size", type=int, default=8)
    export.add_argument("--training", action="store_true",
                        help="export a full traced training step "
                             "(forward+loss+backward+optimizer)")
    export.add_argument("--optimizer", default="adam",
                        help="optimizer for --training exports")
    export.add_argument("--seed", type=int, default=0)
    export.add_argument("-o", "--output", required=True, metavar="FILE")
    _add_trace_options(export)
    export.set_defaults(fn=_cmd_export, check=_validate_common)

    ingest = sub.add_parser(
        "ingest", help="price an external execution-graph JSON "
                       "(PyTorch ET / PARAM / Chakra-style)")
    ingest.add_argument("graph", metavar="GRAPH.json")
    ingest.add_argument("--device", default="2080ti")
    ingest.add_argument("--batch-size", type=int, default=None,
                        help="price at this batch size (default: the "
                             "graph's own batch size)")
    ingest.add_argument("--op-map", default=None, metavar="FILE",
                        help="JSON object of {op-name-pattern: kernel "
                             "category} layered over the default mapping")
    ingest.add_argument("--report", action="store_true",
                        help="full profile summary (default when neither "
                             "--sweep nor --serve is given)")
    ingest.add_argument("--sweep", default=None, metavar="B1,B2,...",
                        help="batch-size sweep across --devices")
    ingest.add_argument("--serve", action="store_true",
                        help="serving simulation driven by the ingested trace")
    ingest.add_argument("--devices", default=None,
                        help="comma-separated devices for --sweep/--serve "
                             "(default: --device)")
    ingest.add_argument("--arrival-rate", type=float, default=None,
                        metavar="REQ_PER_S")
    ingest.add_argument("--n-requests", type=int, default=2_000)
    ingest.add_argument("--policy", default="adaptive",
                        choices=["fixed", "timeout", "adaptive"])
    ingest.add_argument("--slo", type=float, default=50e-3)
    ingest.add_argument("--router", default="earliest-finish",
                        choices=["earliest-finish", "round-robin"])
    ingest.add_argument("--seed", type=int, default=0)
    ingest.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persist ingested traces to DIR "
                             "(content-addressed on the file digest)")
    ingest.set_defaults(fn=_cmd_ingest, check=_check_ingest)

    lint_p = sub.add_parser(
        "lint", help="statically analyze traces, execution graphs, fault "
                     "plans and store entries (no execution)")
    lint_p.add_argument(
        "targets", nargs="+", metavar="TARGET",
        help="what to lint: an execution-graph or fault-plan JSON file, a "
             "workload name (lints its captured trace), or a store digest "
             "prefix from `mmbench store ls`")
    _add_lint_options(lint_p)
    lint_p.add_argument("--unknown-threshold", type=float, default=0.25,
                        metavar="FRAC",
                        help="MMB202 fires when more than FRAC of kernels "
                             "sit in the unknown-op bucket (default 0.25)")
    lint_p.add_argument("--batch-size", type=int, default=8,
                        help="batch size for workload-name targets")
    _add_trace_options(lint_p)
    lint_p.set_defaults(fn=_cmd_lint)

    store_p = sub.add_parser(
        "store", help="corpus operations on the on-disk trace cache "
                      "(ls / stats / gc / lint)")
    store_sub = store_p.add_subparsers(dest="action", required=True)
    for action, help_text in (
        ("ls", "list every disk entry (key, size, status)"),
        ("stats", "aggregate corpus statistics"),
        ("gc", "remove stale, quarantined and torn-write files"),
        ("lint", "lint every readable entry in the store"),
    ):
        action_p = store_sub.add_parser(action, help=help_text)
        action_p.add_argument("--cache-dir", default=None, metavar="DIR",
                              help="store directory (also $MMBENCH_CACHE_DIR)")
        if action == "gc":
            action_p.add_argument("--keep-stale", action="store_true",
                                  help="only remove corrupt/torn files, keep "
                                       "entries with old code fingerprints")
        if action == "lint":
            _add_lint_options(action_p)
        action_p.set_defaults(fn=_cmd_store)

    analyze = sub.add_parser("analyze", help="run a characterization analysis")
    analyze.add_argument("analysis",
                         choices=["stage-time", "kernel-breakdown", "batch-size", "edge"])
    analyze.add_argument("--device", default="2080ti")
    _add_trace_options(analyze)
    analyze.set_defaults(fn=_cmd_analyze, check=_validate_common)

    train = sub.add_parser(
        "train-analyze",
        help="per-pass/per-stage breakdown of traced training steps")
    train.add_argument("--workload", default="avmnist", choices=list_workloads())
    train.add_argument("--workloads", default=None, metavar="W1,W2,...",
                       help="analyze several workloads (overrides --workload; "
                            "'all' via comma list)")
    train.add_argument("--batch-size", type=int, default=8)
    train.add_argument("--device", default="2080ti")
    train.add_argument("--optimizer", default="adam",
                       help="sgd, sgd_momentum, adam, adamw")
    train.add_argument("--sweep", default=None, metavar="B1,B2,...",
                       help="batch-size sweep (one-pass run_sweep pricing "
                            "across --devices)")
    train.add_argument("--devices", default="2080ti",
                       help="comma-separated devices for --sweep")
    train.add_argument("--cross-check", action="store_true",
                       help="also report the traced-vs-synthetic (2x "
                            "heuristic) differential")
    train.add_argument("--seed", type=int, default=0)
    _add_trace_options(train)
    train.set_defaults(fn=_cmd_train_analyze,
                       check=_check_train_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # The one boundary for user input: whatever a command's check raises
    # exits 2 with one line, while errors raised later in the run stay loud.
    try:
        checked = args.check(args)
    except (KeyError, ValueError) as exc:
        print(exc.args[0] if exc.args else str(exc), file=sys.stderr)
        return 2
    return args.fn(args, checked)


if __name__ == "__main__":
    raise SystemExit(main())
