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
from repro.trace.store import default_store
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
            stored = default_store().get_or_capture(
                config.workload, fusion=config.fusion, unimodal=config.unimodal,
                batch_size=config.batch_size, seed=config.seed, backend=config.backend,
            )
            return profiler.profile_stored(stored)
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

    def train(self, config: RunConfig, n_train: int = 384, n_test: int = 256,
              epochs: int = 6):
        """Full training on a latent-factor dataset; returns a TrainResult."""
        info = get_workload(config.workload)
        dataset = LatentMultimodalDataset(info.shapes, info.default_channels(),
                                          seed=config.seed + 17)
        model = self.build_model(config)
        return train_model(model, dataset, n_train=n_train, n_test=n_test,
                           epochs=epochs, seed=config.seed)

    # -- external execution graphs -----------------------------------------------

    def ingest(self, path, registry=None, batch_size: int | None = None,
               store=None) -> ProfileResult:
        """Ingest an execution-graph JSON file and profile it on this
        suite's device.

        The graph goes through the shared trace store
        (:meth:`~repro.trace.store.TraceStore.get_or_ingest`, keyed on the
        file's content digest), so re-profiling the same file is a warm
        hit. ``batch_size`` defaults to the batch size recorded in the
        graph itself; any other batch size is priced by batch-scaling the
        graph, as ``mmbench ingest --report --batch-size`` does
        (:meth:`~repro.profiling.profiler.MMBenchProfiler.profile_stored`).
        """
        store = store if store is not None else default_store()
        stored = store.get_or_ingest(path, registry=registry)
        return MMBenchProfiler(self.device).profile_stored(stored, batch_size)

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
            stored = default_store().get_or_capture(artifact)
            return lint_trace(stored, source=source or f"workload:{artifact}",
                              **options)
        return lint_artifact(artifact, source=source, **options)

    # -- reporting --------------------------------------------------------------

    def summarize(self, result: ProfileResult) -> str:
        return profile_summary(result)
