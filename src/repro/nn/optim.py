"""Optimizers: SGD with momentum, Adam, and decoupled AdamW.

Optimizer steps are traced execution paths: each per-parameter update
emits one fused element-wise kernel from the kernel table
(:data:`repro.nn.ops.KERNELS`; ``pass_="optimizer"``, its own ``optimizer``
stage) over the parameter, gradient and state buffers the update reads
and writes, so a traced training step accounts the optimizer's share
of the step the same way it accounts forward and backward kernels. Under
the meta backend gradients are shape-only and the numeric update is
skipped — the events are shape-derived either way, which keeps the
meta==eager event invariant intact. Optimizer state (momentum velocity,
Adam moments) is allocated per parameter at its first numeric update, so
a meta step allocates none.
"""

from __future__ import annotations

import numpy as np

from repro.nn.backend import MetaArray
from repro.nn.module import Parameter
from repro.nn.ops import emit
from repro.trace.events import STAGE_OPTIMIZER

#: The context every optimizer kernel is recorded in: the optimizer
#: stage, attributed to no modality.
_CONTEXT = (STAGE_OPTIMIZER, None)

#: The global gradient norm a :func:`clip_grad_norm` reduce writes.
_NORM = MetaArray((), np.float32)


def _emit_update(name: str, p: Parameter, state: int, *attrs) -> None:
    """One fused update kernel over one parameter tensor: it reads the
    parameter, its gradient and ``state`` parameter-sized state buffers
    (counted as the parameter, since a meta step allocates none) and writes
    the parameter and the buffers."""
    data = p.data
    emit(name, (data, p.grad) + (data,) * state, (data,) * (1 + state), *attrs, ctx=_CONTEXT)


class Optimizer:
    """Base optimizer over an explicit parameter list."""

    def __init__(self, params, lr: float):
        self.params: list[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """SGD with optional momentum and weight decay."""

    def __init__(self, params, lr: float = 0.01, momentum: float = 0.0, weight_decay: float = 0.0):
        super().__init__(params, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: list[np.ndarray | None] = [None] * len(self.params)

    def step(self) -> None:
        # With momentum the update also reads and writes the velocity.
        state = 1 if self.momentum else 0
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            _emit_update("sgd_update", p, state, self.momentum, self.weight_decay)
            if isinstance(p.grad, MetaArray):
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            if self.momentum:
                v = self._velocity[i]
                if v is None:
                    v = self._velocity[i] = np.zeros_like(p.data)
                v *= self.momentum
                v += g
                g = v
            p.data -= self.lr * g


class Adam(Optimizer):
    """Adam with bias correction.

    ``weight_decay`` follows the classic L2 formulation (decay folded into
    the gradient before the moment updates). ``decoupled=True`` switches
    to AdamW semantics: the decay is applied directly to the parameters,
    outside the adaptive moments — see :class:`AdamW`.
    """

    name = "adam"

    def __init__(self, params, lr: float = 1e-3, betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0, decoupled: bool = False):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.decoupled = decoupled
        self._m: list[np.ndarray | None] = [None] * len(self.params)
        self._v: list[np.ndarray | None] = [None] * len(self.params)
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bc1 = 1.0 - self.beta1**self._t
        bc2 = 1.0 - self.beta2**self._t
        name = "adamw_update" if self.decoupled else "adam_update"
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            # The update also reads and writes both moments.
            _emit_update(name, p, 2, self.weight_decay)
            if isinstance(p.grad, MetaArray):
                continue
            if self._m[i] is None:
                self._m[i], self._v[i] = np.zeros_like(p.data), np.zeros_like(p.data)
            m, v = self._m[i], self._v[i]
            g = p.grad
            if self.weight_decay and not self.decoupled:
                # L2: decay rides the gradient into the adaptive moments,
                # which distorts the effective decay per parameter.
                g = g + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            if self.weight_decay and self.decoupled:
                # Decoupled (AdamW): decay applies to the parameter
                # directly, scaled by lr only — invariant to the moments.
                p.data -= self.lr * self.weight_decay * p.data
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter).

    Unlike L2-style ``Adam(weight_decay=...)``, the decay term never
    enters the moment estimates, so the optimizer-kernel byte accounting
    (and the regularization itself) is independent of the gradient scale.
    """

    name = "adamw"

    def __init__(self, params, lr: float = 1e-3, betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 1e-2):
        super().__init__(params, lr, betas=betas, eps=eps,
                         weight_decay=weight_decay, decoupled=True)


#: CLI/key-friendly optimizer names -> constructor.
OPTIMIZERS = {
    "sgd": lambda params, lr=0.01: SGD(params, lr=lr),
    "sgd_momentum": lambda params, lr=0.01: SGD(params, lr=lr, momentum=0.9),
    "adam": lambda params, lr=1e-3: Adam(params, lr=lr),
    "adamw": lambda params, lr=1e-3: AdamW(params, lr=lr),
}


def make_optimizer(name: str, params, lr: float | None = None):
    """Build an optimizer from its name (``sgd``/``sgd_momentum``/``adam``/``adamw``)."""
    try:
        factory = OPTIMIZERS[name]
    except KeyError:
        raise KeyError(
            f"unknown optimizer {name!r}; known: {sorted(OPTIMIZERS)}") from None
    return factory(params) if lr is None else factory(params, lr=lr)


def clip_grad_norm(params, max_norm: float) -> float:
    """Clip gradients to a maximum global L2 norm; returns the norm.

    Emits one global norm-reduce kernel when a tracer is active. If the
    computed norm is non-finite (an inf/nan gradient), the gradients are
    left untouched — scaling by ``max_norm / inf`` would silently zero
    every gradient, and by ``nan`` would poison them all. Shape-only
    (meta-backend) gradients have no numeric norm; they are left as-is and
    the function returns ``nan``.
    """
    params = [p for p in params if p.grad is not None]
    if not params:
        return 0.0
    emit("grad_norm", [p.grad for p in params], (_NORM,), ctx=_CONTEXT)
    if any(isinstance(p.grad, MetaArray) for p in params):
        return float("nan")
    total = float(np.sqrt(sum(float((p.grad**2).sum()) for p in params)))
    if not np.isfinite(total):
        return total
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total
