"""Training-step profiling: traced execution and the synthetic cross-check.

MMBench abstracts both "the training and inference process" (Sec. 3.3).
Since the autodiff layer emits kernels from its backward closures and the
optimizers emit their update kernels, a training step is a *traced*
execution path: :func:`trace_training_step` runs one real
forward + loss + backward + optimizer step under an active tracer and
returns a trace whose kernels carry the pass taxonomy
(``forward`` / ``loss`` / ``backward`` / ``optimizer``) alongside the
usual stage/modality context. The capture works on both backends — the
meta backend propagates shape-only gradients and emits an event-for-event
identical stream (tier-1 enforced).

The pre-traced heuristic (every forward kernel gets a 2x backward twin,
plus synthesized loss and optimizer kernels) is kept as
:func:`synthetic_training_trace`, a cross-check reference: the traced
step's FLOP ratio must stay in the same regime the classic
"training ~ 3x inference" accounting predicts.
"""

from __future__ import annotations

import numpy as np

from repro.trace.events import (
    KernelCategory,
    KernelEvent,
    PASS_BACKWARD,
    PASS_LOSS,
    PASS_OPTIMIZER,
    STAGE_HEAD,
)
from repro.trace.tracer import Trace, Tracer

# Optimizer state traffic multipliers relative to parameter bytes
# (synthetic model; the traced path gets this from the optimizer itself).
_OPTIMIZER_STATE_READS = {"sgd": 1.0, "sgd_momentum": 2.0, "adam": 3.0, "adamw": 3.0}

#: Device-resident training footprint relative to parameter bytes:
#: parameters + gradients + optimizer state buffers. Feeds the memory
#: model when pricing a training trace.
OPTIMIZER_MEMORY_FACTOR = {"sgd": 2.0, "sgd_momentum": 3.0, "adam": 4.0, "adamw": 4.0}


def training_memory_factor(optimizer: str = "adam") -> float:
    """Model-bytes multiplier for a resident training step."""
    try:
        return OPTIMIZER_MEMORY_FACTOR[optimizer]
    except KeyError:
        raise KeyError(
            f"unknown optimizer {optimizer!r}; known: "
            f"{sorted(OPTIMIZER_MEMORY_FACTOR)}") from None


# ---------------------------------------------------------------------------
# the traced training path
# ---------------------------------------------------------------------------


def trace_training_step(
    model,
    batch: dict | None = None,
    targets: np.ndarray | None = None,
    batch_size: int = 8,
    seed: int = 0,
    backend: str | None = None,
    optimizer="adam",
    lr: float = 1e-3,
    clip_norm: float | None = None,
) -> Trace:
    """Trace one real training step of ``model`` (device-independent).

    Runs forward (staged, as in inference), the task loss (``pass_="loss"``
    under the head stage), backward (each closure emits its kernels with
    the snapshotted forward stage/modality) and one optimizer step
    (``pass_="optimizer"``). ``batch``/``targets`` default to synthetic
    data for ``model.shapes`` on ``backend``; ``optimizer`` is a name from
    :data:`repro.nn.optim.OPTIMIZERS` or a ready optimizer instance.

    On the eager backend the step mutates ``model``: its parameters,
    batch-norm running statistics and dropout generators. Callers who need
    the pristine model should pass a fresh build, as the trace store's
    eager training path does. On the meta backend the step leaves every
    parameter, buffer and generator as it was and only sets shape-only
    gradients (``model.zero_grad()`` clears them), so the store reuses its
    memoized build there.
    """
    from repro.core.train import loss_fn_for
    from repro.data.synthetic import random_batch, random_targets
    from repro.nn.optim import clip_grad_norm, make_optimizer
    from repro.trace.tracer import pass_scope, stage_scope

    if batch is None:
        batch = random_batch(model.shapes, batch_size, seed=seed, backend=backend)
    if targets is None:
        targets = random_targets(model.shapes, batch_size, seed=seed)
    opt = make_optimizer(optimizer, model.parameters(), lr=lr) \
        if isinstance(optimizer, str) else optimizer
    loss_fn = loss_fn_for(model.shapes.task.kind)

    tracer = Tracer()
    model.train()
    with tracer.activate():
        opt.zero_grad()
        out = model(batch)
        with pass_scope(PASS_LOSS), stage_scope(STAGE_HEAD):
            loss = loss_fn(out, targets)
        loss.backward()
        if clip_norm is not None:
            clip_grad_norm(model.parameters(), clip_norm)
        opt.step()
    return tracer.finish()


def traced_training_flops_ratio(trace: Trace) -> float:
    """Full-step FLOPs over forward-pass FLOPs of one traced training step."""
    cols = trace.columns()
    forward = float(cols.flops[cols.kernel_indices_for_pass("forward")].sum())
    if forward <= 0:
        raise ValueError("trace has no forward-pass FLOPs")
    return trace.total_flops / forward


# ---------------------------------------------------------------------------
# the synthetic cross-check (the pre-traced heuristic, demoted)
# ---------------------------------------------------------------------------


def synthetic_training_trace(forward: Trace, param_bytes: float, optimizer: str = "adam") -> Trace:
    """Synthesize a training-step trace from a forward trace (heuristic).

    The standard accounting used by FLOP estimators everywhere: every
    forward kernel gets a backward counterpart of ~2x its work, the
    optimizer adds one element-wise update over every parameter, the loss
    adds a small reduce over the outputs. Kept as a cross-check reference
    for the traced path (:func:`trace_training_step`), which measures the
    same quantities instead of assuming them.
    """
    if optimizer not in _OPTIMIZER_STATE_READS:
        raise KeyError(
            f"unknown optimizer {optimizer!r}; known: {sorted(_OPTIMIZER_STATE_READS)}"
        )
    kernels: list[KernelEvent] = [k for k in forward.kernels]

    # Backward kernels, in reverse execution order, inheriting the stage
    # and modality of their forward counterparts.
    for k in reversed(forward.kernels):
        kernels.append(KernelEvent(
            name=f"{k.name}_bwd",
            category=k.category,
            flops=2.0 * k.flops,
            bytes_read=2.0 * k.bytes_read,
            bytes_written=2.0 * k.bytes_written,
            threads=k.threads,
            stage=k.stage,
            modality=k.modality,
            pass_=PASS_BACKWARD,
            coalesced_fraction=k.coalesced_fraction,
            reuse_factor=k.reuse_factor,
            meta=dict(k.meta),
        ))

    # Loss reduce over the head outputs. Uni-modal variants (and any trace
    # whose head emitted no kernels) fall back to the last kernel's output
    # — the tensor the loss actually reads — instead of pricing to zero.
    head_out = 0.0
    for k in forward.kernels:
        if k.stage == "head":
            head_out = max(head_out, k.bytes_written)
    if head_out <= 0.0 and forward.kernels:
        head_out = forward.kernels[-1].bytes_written
    kernels.append(KernelEvent(
        name="loss_reduce",
        category=KernelCategory.REDUCE,
        flops=head_out / 4.0,
        bytes_read=head_out,
        bytes_written=4.0,
        threads=max(int(head_out / 4.0), 1),
        stage="head",
        pass_=PASS_LOSS,
        coalesced_fraction=0.85,
    ))

    # Optimizer update: element-wise over every parameter + state buffers.
    state_reads = _OPTIMIZER_STATE_READS[optimizer]
    kernels.append(KernelEvent(
        name=f"{optimizer}_update",
        category=KernelCategory.ELEWISE,
        flops=param_bytes / 4.0 * (2.0 + 2.0 * state_reads),
        bytes_read=param_bytes * (1.0 + state_reads),
        bytes_written=param_bytes * (1.0 + max(state_reads - 1.0, 0.0)),
        threads=max(int(param_bytes / 4.0), 1),
        stage="head",
        pass_=PASS_OPTIMIZER,
    ))

    return Trace(kernels=kernels, host_events=list(forward.host_events))


def training_flops_ratio(forward: Trace, param_bytes: float, optimizer: str = "adam") -> float:
    """Synthetic training-step FLOPs over inference FLOPs (~3x + update)."""
    train = synthetic_training_trace(forward, param_bytes, optimizer)
    if forward.total_flops <= 0:
        raise ValueError("forward trace has no FLOPs")
    return train.total_flops / forward.total_flops
