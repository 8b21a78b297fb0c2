"""Algorithm-level metrics: parameter and FLOP counting.

The first category of MMBench's evaluation metrics (Sec. 3.4): "basic
algorithm level information such as model accuracy, parameter number and
FLOPs", derived here from the model itself and a traced forward pass.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.trace.store import capture_inference
from repro.workloads.base import MultiModalModel


def count_parameters(model: nn.Module) -> dict[str, int]:
    """Total and per-top-level-submodule parameter counts."""
    out = {"total": model.num_parameters()}
    for name, child in model._modules.items():
        out[name] = child.num_parameters()
    return out


def count_flops(model: MultiModalModel, batch: dict[str, np.ndarray]) -> dict[str, float]:
    """Inference FLOPs per stage and total, from a traced forward pass."""
    trace = capture_inference(model, batch)
    cols = trace.columns()
    per_stage = np.bincount(cols.stage_codes, weights=cols.flops,
                            minlength=len(cols.stage_table))
    out: dict[str, float] = {"total": trace.total_flops}
    for stage in trace.stages():
        out[stage] = float(per_stage[cols.stage_code(stage)])
    return out


def flops_per_sample(model: MultiModalModel, batch: dict[str, np.ndarray]) -> float:
    """Per-sample inference FLOPs (total / batch size)."""
    batch_size = len(next(iter(batch.values())))
    return count_flops(model, batch)["total"] / batch_size
