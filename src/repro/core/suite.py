"""The MMBench suite front-end.

Ties workloads, data, profiling and device models into the command-level
operations the paper's scripts expose: run a workload (inference or
training step), profile it at each metric level, and run any of the
characterization analyses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.train import loss_fn_for, train_model
from repro.data.generators import LatentMultimodalDataset
from repro.data.synthetic import random_batch, random_targets
from repro.profiling.profiler import MMBenchProfiler, ProfileResult
from repro.profiling.report import profile_summary
from repro.workloads.base import unimodal_shapes
from repro.workloads.registry import WorkloadInfo, get_workload, list_workloads
from repro import nn


@dataclass
class RunConfig:
    """Options mirroring MMBench's command-line flags (Fig. 2/3)."""

    workload: str = "avmnist"
    fusion: str | None = None  # None = workload default
    unimodal: str | None = None  # modality name -> uni-modal baseline
    batch_size: int = 8
    device: str = "2080ti"
    seed: int = 0
    # Dataset-free abstraction (random inputs) vs latent-factor data.
    synthetic_inputs: bool = True
    # Trace-capture backend: "eager", "meta", or None for the process
    # default (see repro.nn.backend). Meta requires synthetic inputs.
    backend: str | None = None


class BenchmarkSuite:
    """Programmatic entry point for the whole benchmark suite."""

    def __init__(self, device: str = "2080ti"):
        self.device = device

    # -- inventory ------------------------------------------------------------

    def workloads(self) -> list[str]:
        return list_workloads()

    def info(self, workload: str) -> WorkloadInfo:
        return get_workload(workload)

    # -- build & run -----------------------------------------------------------

    def build_model(self, config: RunConfig):
        info = get_workload(config.workload)
        if config.unimodal is not None:
            return info.build_unimodal(config.unimodal, seed=config.seed)
        return info.build(config.fusion, seed=config.seed)

    def make_batch(self, config: RunConfig) -> dict[str, np.ndarray]:
        info = get_workload(config.workload)
        model_shapes = (info.shapes if config.unimodal is None
                        else unimodal_shapes(info.shapes, config.unimodal))
        if config.synthetic_inputs:
            return random_batch(model_shapes, config.batch_size, seed=config.seed)
        dataset = LatentMultimodalDataset(info.shapes, info.default_channels(),
                                          seed=config.seed)
        batch, _ = dataset.sample(config.batch_size, seed=config.seed + 1)
        wanted = set(model_shapes.modality_names)
        return {k: v for k, v in batch.items() if k in wanted}

    def run_inference(self, config: RunConfig) -> ProfileResult:
        """One profiled inference batch (the paper's default measurement).

        Synthetic-input runs go through the shared trace store (so repeat
        runs are cache hits and the meta backend is available); latent-
        factor data always executes eagerly.
        """
        profiler = MMBenchProfiler(config.device or self.device)
        if config.synthetic_inputs:
            return profiler.profile_workload(
                config.workload,
                fusion=config.fusion,
                unimodal=config.unimodal,
                batch_size=config.batch_size,
                seed=config.seed,
                backend=config.backend,
            )
        from repro.nn.backend import resolve_backend

        if resolve_backend(config.backend) == "meta":
            raise ValueError("the meta backend requires synthetic inputs")
        model = self.build_model(config)
        batch = self.make_batch(config)
        return profiler.profile(model, batch)

    def run_training_step(self, config: RunConfig) -> float:
        """One forward+backward+step; returns the loss value."""
        info = get_workload(config.workload)
        model = self.build_model(config)
        batch = self.make_batch(config)
        targets = random_targets(info.shapes, config.batch_size, seed=config.seed)
        loss_fn = loss_fn_for(info.task_kind)
        optimizer = nn.optim.Adam(model.parameters(), lr=1e-3)
        model.train()
        optimizer.zero_grad()
        loss = loss_fn(model(batch), targets)
        loss.backward()
        optimizer.step()
        return loss.item()

    def training_breakdown(self, config: RunConfig, optimizer: str = "adam"):
        """Priced per-pass/per-stage breakdown of one traced training step.

        Backs ``mmbench train-analyze``: the store-cached traced step
        (forward + loss + backward + optimizer kernels) priced on the
        vectorized engine for ``config.device``.
        """
        from repro.core.analysis.training import training_step_analysis

        return training_step_analysis(
            workloads=[config.workload],
            device=config.device or self.device,
            batch_size=config.batch_size,
            optimizer=optimizer,
            fusion=config.fusion,
            unimodal=config.unimodal,
            seed=config.seed,
            backend=config.backend,
        )[config.workload]

    def train(self, config: RunConfig, n_train: int = 384, n_test: int = 256,
              epochs: int = 6):
        """Full training on a latent-factor dataset; returns a TrainResult."""
        info = get_workload(config.workload)
        dataset = LatentMultimodalDataset(info.shapes, info.default_channels(),
                                          seed=config.seed + 17)
        model = self.build_model(config)
        return train_model(model, dataset, n_train=n_train, n_test=n_test,
                           epochs=epochs, seed=config.seed)

    # -- serving under faults ------------------------------------------------------

    def chaos_serve(self, scenario: str = "single-failure",
                    workloads=None, mix: str = "uniform",
                    n_requests: int = 2_000, arrival_rate: float = 1_000.0,
                    slo: float = 50e-3, devices=None, seed: int = 0,
                    backend: str = "meta", retry=None):
        """Serve a tenant mix under a named chaos scenario; returns the report.

        The programmatic twin of ``mmbench serve --mix ... --faults``:
        builds profiled tenants for ``workloads`` (default: the full
        registry), sizes the fault plan's horizon from
        ``n_requests / arrival_rate``, and runs :func:`simulate_mixed`
        with the scenario's fault plan plus a default retry policy.
        The returned report's ``fault_stats`` carries the per-device
        downtime, retry and shedding accounting.
        """
        from repro.serving import (
            RetryPolicy,
            chaos_plan,
            make_tenants,
            simulate_mixed,
        )

        if arrival_rate <= 0:
            raise ValueError(f"arrival_rate must be positive, got {arrival_rate}")
        # Chaos plans must leave at least one device up, so the default
        # pool pairs the suite's device with an edge box (the CLI default).
        devices = tuple(devices) if devices else (self.device, "nano")
        workloads = tuple(workloads) if workloads else tuple(list_workloads())
        tenants = make_tenants(workloads, slo=slo, seed=seed, backend=backend)
        plan = chaos_plan(scenario, devices, n_requests / arrival_rate,
                          seed=seed)
        return simulate_mixed(
            tenants, devices=devices, n_requests=n_requests,
            arrival_rate=arrival_rate, scenario=mix, seed=seed,
            faults=plan, retry=retry if retry is not None else RetryPolicy(),
        )

    # -- fleet-scale serving -------------------------------------------------------

    def fleet_serve(self, groups="2080ti:4,nano:2", workloads=None,
                    mix: str = "uniform", n_requests: int = 10_000,
                    arrival_rate: float | None = None, slo: float = 50e-3,
                    autoscale=None, faults=None, hop_bytes: float = 0.0,
                    seed: int = 0, backend: str = "meta"):
        """Serve a tenant mix on a fleet of device groups; returns a
        :class:`~repro.serving.fleet.FleetReport`.

        The programmatic twin of ``mmbench serve --fleet``: ``groups`` is
        either a ``"dev:replicas[:pool],..."`` spec string or a sequence
        of :class:`~repro.serving.fleet.DeviceGroup`; ``autoscale`` is an
        :class:`~repro.serving.fleet.AutoscalePolicy` (or a CLI-style
        ``"metric:threshold[:interval[:cooldown]]"`` spec); ``faults`` is
        a :class:`~repro.serving.faults.FaultPlan` or a chaos-scenario
        name resolved against the group device names (requires
        ``arrival_rate`` to size its horizon).
        """
        from repro.serving import (
            chaos_plan,
            make_tenants,
            parse_autoscale,
            parse_groups,
            simulate_fleet,
        )
        from repro.serving.faults import CHAOS_SCENARIO_NAMES

        if isinstance(groups, str):
            groups = parse_groups(groups)
        if isinstance(autoscale, str):
            autoscale = parse_autoscale(autoscale)
        if isinstance(faults, str):
            if faults not in CHAOS_SCENARIO_NAMES:
                raise ValueError(
                    f"unknown chaos scenario {faults!r}; "
                    f"available: {', '.join(CHAOS_SCENARIO_NAMES)}")
            if arrival_rate is None:
                raise ValueError(f"chaos scenario {faults!r} needs an "
                                 "arrival_rate to size its horizon")
            faults = chaos_plan(faults, tuple(g.device for g in groups),
                                n_requests / arrival_rate, seed=seed)
        workloads = tuple(workloads) if workloads else tuple(list_workloads())
        tenants = make_tenants(workloads, slo=slo, seed=seed, backend=backend)
        return simulate_fleet(
            tenants, groups, n_requests=n_requests, arrival_rate=arrival_rate,
            scenario=mix, autoscale=autoscale, faults=faults,
            hop_bytes=hop_bytes, seed=seed,
        )

    # -- external execution graphs -----------------------------------------------

    def ingest(self, path, registry=None, batch_size: int | None = None,
               store=None) -> ProfileResult:
        """Ingest an execution-graph JSON file and profile it on this
        suite's device.

        The graph goes through the shared trace store
        (:meth:`~repro.trace.store.TraceStore.get_or_ingest`, keyed on the
        file's content digest), so re-profiling the same file is a warm
        hit. ``batch_size`` defaults to the batch size recorded in the
        graph itself.
        """
        from repro.trace.store import default_store

        store = store if store is not None else default_store()
        stored = store.get_or_ingest(path, registry=registry)
        if batch_size is None:
            batch_size = int(stored.extra.get("batch_size", 1))
        profiler = MMBenchProfiler(self.device)
        return profiler.profile_stored(stored, batch_size)

    # -- static analysis ----------------------------------------------------------

    def lint(self, artifact, source: str | None = None, **options):
        """Statically lint a benchmark artifact; returns a ``LintReport``.

        The programmatic twin of ``mmbench lint``: ``artifact`` can be a
        path to an execution-graph or fault-plan JSON, a workload name, a
        ``Trace``/``TraceColumns``/``StoredTrace``, a ``StreamSchedule``,
        a ``ServingReport``, a ``FaultPlan``, a tenant list or an
        op-mapping registry — the rule set is picked by type. Nothing is
        executed; every rule is array math over the artifact.
        """
        from repro.lint import lint_artifact, lint_trace

        if isinstance(artifact, str) and artifact in set(list_workloads()):
            from repro.trace.store import default_store

            stored = default_store().get_or_capture(artifact)
            return lint_trace(stored, source=source or f"workload:{artifact}",
                              **options)
        return lint_artifact(artifact, source=source, **options)

    # -- reporting --------------------------------------------------------------

    def summarize(self, result: ProfileResult) -> str:
        return profile_summary(result)
