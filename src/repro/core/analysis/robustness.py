"""Robustness to noisy and missing modalities.

MultiBench — the algorithm-level benchmark the paper positions itself
against — evaluates "robustness to noisy and missing modalities"; MMBench
inherits the axis at the system level: sensor dropout is exactly the
scenario behind the paper's warning that naively throttling encoders
"can lead to avoidable task failures resulting from the loss of situation
awareness" (Sec. 4.2.3). This analysis trains a fused model once and
measures its metric as each modality is dropped (zeroed) or progressively
corrupted with noise at evaluation time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.train import TrainResult, evaluate, train_model
from repro.data.generators import LatentMultimodalDataset
from repro.workloads.registry import get_workload


@dataclass
class RobustnessReport:
    """Degradation of one trained model under modality perturbations."""

    workload: str
    clean_metric: float
    higher_is_better: bool
    dropped_modality_metric: dict[str, float] = field(default_factory=dict)
    noise_sweep: dict[float, float] = field(default_factory=dict)  # sigma -> metric

    def degradation(self, modality: str) -> float:
        """Signed metric change when ``modality`` is dropped (negative = worse
        for higher-is-better metrics)."""
        delta = self.dropped_modality_metric[modality] - self.clean_metric
        return delta if self.higher_is_better else -delta

    def worst_modality(self) -> str:
        """Modality whose drop costs the most task metric — the one a
        degraded serving mode should *not* shed lightly."""
        if not self.dropped_modality_metric:
            raise ValueError("no dropped-modality metrics recorded")
        return min(self.dropped_modality_metric, key=self.degradation)


def _zero_modality(batch: dict[str, np.ndarray], modality: str) -> dict[str, np.ndarray]:
    out = dict(batch)
    arr = out[modality]
    if np.issubdtype(arr.dtype, np.integer):
        out[modality] = np.zeros_like(arr)  # pad/unknown token
    else:
        out[modality] = np.zeros_like(arr)
    return out


def _add_noise(batch: dict[str, np.ndarray], sigma: float,
               rng: np.random.Generator) -> dict[str, np.ndarray]:
    out = {}
    for name, arr in batch.items():
        if np.issubdtype(arr.dtype, np.integer):
            out[name] = arr  # token corruption handled via dropout only
        else:
            out[name] = arr + rng.standard_normal(arr.shape).astype(arr.dtype) * sigma
    return out


def robustness_analysis(
    workload: str = "avmnist",
    noise_levels: tuple[float, ...] = (0.5, 1.0, 2.0),
    n_train: int = 256,
    n_test: int = 192,
    epochs: int = 5,
    seed: int = 0,
) -> RobustnessReport:
    """Train the fused model, then perturb each modality at eval time."""
    info = get_workload(workload)
    dataset = LatentMultimodalDataset(info.shapes, info.default_channels(), seed=seed + 17)
    result: TrainResult = train_model(info.build(seed=seed), dataset,
                                      n_train=n_train, n_test=n_test, epochs=epochs,
                                      seed=seed)
    model = result.model
    task_kind = info.task_kind

    test_batch, test_targets = dataset.sample(n_test, seed=seed + 10_000)
    _, clean = evaluate(model, test_batch, test_targets, task_kind)

    report = RobustnessReport(workload=workload, clean_metric=clean,
                              higher_is_better=result.higher_is_better)

    for modality in info.modalities:
        perturbed = _zero_modality(test_batch, modality)
        _, metric = evaluate(model, perturbed, test_targets, task_kind)
        report.dropped_modality_metric[modality] = metric

    rng = np.random.default_rng(seed + 99)
    for sigma in noise_levels:
        noisy = _add_noise(test_batch, sigma, rng)
        _, metric = evaluate(model, noisy, test_targets, task_kind)
        report.noise_sweep[sigma] = metric

    return report
