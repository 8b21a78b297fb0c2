"""The kernel table: every kernel's work, spelled once, by name.

MMBench attributes each op to one of eight kernel categories (Conv, BNorm,
Elewise, Pooling, Relu, Gemm, Reduce and Other; its Figure 8). Every kernel
the op library and the optimizers launch has one entry in :data:`KERNELS`,
keyed by the name its trace row carries. An entry holds the kernel's
category, the pass it always runs in (backward and optimizer kernels;
forward kernels take the tracer's pass, forward or loss), and how its work
follows from two inputs: the arrays it reads and writes, and the attributes
shapes do not carry (a convolution's stride, a pooling window, an
optimizer's momentum and weight decay). Its bytes read and written are
those arrays' bytes.

Most kernels are pointwise: ``flops`` FLOPs and one thread per element of
their first output (``over_ins``: of their first input), at a fixed
coalescing and reuse. Those entries are plain data. The others carry a
``rule(ins, outs, *attrs) -> (flops, threads, reuse, meta)``. Rules read
only ``shape``, ``size`` and ``ndim``, and :func:`emit` only ``nbytes``, so
any object with those four prices like the array it stands for.

A backward kernel counts its incoming gradient as the forward output it
differentiates (same shape, same bytes), and an optimizer kernel counts
each parameter-sized state buffer as the parameter.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.trace import tracer as _tracer
from repro.trace.events import KernelCategory, PASS_BACKWARD, PASS_OPTIMIZER
from repro.trace.tracer import UNSET, emit_kernel

_CONV = KernelCategory.CONV
_BNORM = KernelCategory.BNORM
_ELEWISE = KernelCategory.ELEWISE
_POOLING = KernelCategory.POOLING
_RELU = KernelCategory.RELU
_GEMM = KernelCategory.GEMM
_REDUCE = KernelCategory.REDUCE
_OTHER = KernelCategory.OTHER

_NO_META: dict = {}


class Kernel(NamedTuple):
    """One table entry: a kernel's category, its work rule and its pass."""

    category: KernelCategory
    #: FLOPs per counted element (pointwise kernels).
    flops: float = 0
    #: Count the first input's elements rather than the first output's.
    over_ins: bool = False
    coalesced: float = 1.0
    reuse: float = 1.0
    #: ``rule(ins, outs, *attrs) -> (flops, threads, reuse, meta)``, or None
    #: for a pointwise kernel.
    rule: Callable | None = None
    #: The pass every launch runs in; None takes the tracer's.
    pass_: str | None = None


def emit(name: str, ins, outs, *attrs, ctx=None):
    """Record one launch of kernel ``name`` reading ``ins`` and writing ``outs``.

    ``attrs`` are the attributes the kernel's rule takes. ``ctx`` labels the
    row with its stage and modality: the context a backward closure's
    forward launch was recorded in, or the optimizer's (None: the tracer's
    current one). Returns the tracer context the launch was recorded in,
    which an op's backward closure passes back as ``ctx``; a no-op that
    returns None when no tracer is active.
    """
    tracer = _tracer._ACTIVE
    if tracer is None:
        return None
    category, flops, over_ins, coalesced, reuse, rule, pass_ = KERNELS[name]
    # Most launches read or write one array; the check is cheaper than a loop.
    read = ins[0].nbytes if len(ins) == 1 else _nbytes(ins)
    written = outs[0].nbytes if len(outs) == 1 else _nbytes(outs)
    if ctx is None:
        stage, modality = None, UNSET
    else:
        stage, modality = ctx[0], ctx[1]
    if rule is None:
        threads = ins[0].size if over_ins else outs[0].size
        emit_kernel(name, category, flops * threads, read, written, threads, coalesced, reuse,
                    stage, modality, pass_)
    else:
        flops, threads, reuse, meta = rule(ins, outs, *attrs)
        emit_kernel(name, category, flops, read, written, threads, coalesced, reuse,
                    stage, modality, pass_, **meta)
    return tracer.context


def _nbytes(arrays) -> int:
    total = 0
    for x in arrays:
        total += x.nbytes
    return total


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------


def _reduce(ins, outs):
    """One FLOP per input element, one thread per output element."""
    return ins[0].size, max(outs[0].size, 1), 1.0, _NO_META


def _gemm(ins, outs):
    a, b = ins
    m = a.shape[-2] if a.ndim >= 2 else 1
    k = a.shape[-1]
    n = b.shape[-1] if b.ndim >= 2 else 1
    size = outs[0].size
    return 2.0 * size * k, max(size, 1), min(float(k), 64.0), {"m": m, "n": n, "k": k}


# The two gradient products each have the forward's FLOP volume: the
# incoming gradient's elements times the contracted dimension k.
def _gemm_bwd_da(ins, outs):
    grad, b = ins
    a = outs[0]
    n = b.shape[-1] if b.ndim >= 2 else 1
    return 2.0 * grad.size * a.shape[-1], max(a.size, 1), min(float(n), 64.0), _NO_META


def _gemm_bwd_db(ins, outs):
    grad, a = ins
    m = a.shape[-2] if a.ndim >= 2 else 1
    b = outs[0]
    return 2.0 * grad.size * a.shape[-1], max(b.size, 1), min(float(m), 64.0), _NO_META


def _outer_bwd(ins, outs):
    return 2.0 * ins[0].size, max(outs[0].size, 1), 2.0, _NO_META


def _binary_bwd(flops):
    """``flops`` per output element for each input that takes a gradient."""
    def rule(ins, outs):
        n = ins[0].size
        return flops * n * len(outs), n, 1.0, _NO_META
    return rule


def _conv_rules(reuse_cap: float):
    """Forward, weight-gradient and input-gradient rules of a convolution
    whose weight is (O, C, *kernel); every product has the forward's FLOP
    volume, and each one's reuse is capped at ``reuse_cap``."""

    def meta(weight, stride):
        kernel = weight.shape[2:]
        return {"kh": kernel[0] if len(kernel) == 2 else 1, "kw": kernel[-1], "stride": stride}

    def forward(ins, outs, stride):
        weight, out = ins[1], outs[0]
        fan_in = weight.size // weight.shape[0]
        return (2.0 * out.size * fan_in, out.size, min(float(fan_in), reuse_cap),
                meta(weight, stride))

    def wgrad(ins, outs, stride):
        # Reads the output gradient and the im2col matrix (N, positions, C*k).
        cols, weight = ins[1], outs[0]
        return (2.0 * cols.size * weight.shape[0], weight.size,
                min(float(cols.shape[0] * cols.shape[1]), reuse_cap), meta(weight, stride))

    def dgrad(ins, outs, stride):
        grad, weight, x = ins[0], ins[1], outs[0]
        return (2.0 * grad.size * (weight.size // weight.shape[0]), x.size,
                min(float(weight.size // weight.shape[1]), reuse_cap), meta(weight, stride))

    return forward, wgrad, dgrad


def _pooled(ins, outs, window):
    """Forward pooling: each output element reduces a window x window patch."""
    n = outs[0].size
    return window * window * n, n, 1.0, _NO_META


def _unpooled(ins, outs, window):
    """Average-pool backward: each gradient element spreads over its window."""
    n = ins[0].size
    return window * window * n, n, 1.0, _NO_META


def _grad_norm(ins, outs):
    elements = 0
    for g in ins:
        elements += g.size
    return 2.0 * elements, max(elements, 1), 1.0, _NO_META


def _sgd_update(ins, outs, momentum, weight_decay):
    n = outs[0].size
    flops = 2.0 + (2.0 if momentum else 0.0) + (2.0 if weight_decay else 0.0)
    return flops * n, n, 1.0, _NO_META


def _adam_update(ins, outs, weight_decay):
    n = outs[0].size
    return (12.0 + (2.0 if weight_decay else 0.0)) * n, n, 1.0, _NO_META


_conv1d, _conv1d_wgrad, _conv1d_dgrad = _conv_rules(64.0)
_conv2d, _conv2d_wgrad, _conv2d_dgrad = _conv_rules(96.0)


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------

_FORWARD = {
    # elementwise arithmetic and activations: FLOPs per output element
    "add": Kernel(_ELEWISE, 1),
    "sub": Kernel(_ELEWISE, 1),
    "mul": Kernel(_ELEWISE, 1),
    "div": Kernel(_ELEWISE, 1),
    "neg": Kernel(_ELEWISE, 1),
    "pow": Kernel(_ELEWISE, 2),
    "exp": Kernel(_ELEWISE, 4),
    "log": Kernel(_ELEWISE, 4),
    "sqrt": Kernel(_ELEWISE, 2),
    "relu": Kernel(_RELU, 1),
    "leaky_relu": Kernel(_RELU, 2),
    "sigmoid": Kernel(_ELEWISE, 5),
    "tanh": Kernel(_ELEWISE, 6),
    "gelu": Kernel(_ELEWISE, 12),
    "dropout": Kernel(_ELEWISE, 1),
    # reductions; softmax's row reduce writes the keepdims row max
    "reduce_sum": Kernel(_REDUCE, coalesced=0.85, rule=_reduce),
    "reduce_max": Kernel(_REDUCE, coalesced=0.85, rule=_reduce),
    "softmax_reduce": Kernel(_REDUCE, 2, over_ins=True, coalesced=0.85),
    "softmax_elewise": Kernel(_ELEWISE, 6),
    "log_softmax_reduce": Kernel(_REDUCE, 2, over_ins=True, coalesced=0.85),
    "log_softmax_elewise": Kernel(_ELEWISE, 5),
    # linear algebra
    "gemm": Kernel(_GEMM, rule=_gemm),
    "outer_product": Kernel(_GEMM, 1, reuse=2.0),
    # memory movement; an embedding gather reads the rows it writes
    "transpose": Kernel(_OTHER, coalesced=0.5),
    "concat": Kernel(_OTHER, coalesced=0.9),
    "stack": Kernel(_OTHER, coalesced=0.9),
    "pad": Kernel(_OTHER),
    "embedding_gather": Kernel(_OTHER, coalesced=0.35),
    "upsample_nearest": Kernel(_OTHER, coalesced=0.8),
    # convolution, pooling, normalization
    "conv1d": Kernel(_CONV, rule=_conv1d),
    "conv2d": Kernel(_CONV, rule=_conv2d),
    "max_pool2d": Kernel(_POOLING, coalesced=0.9, rule=_pooled),
    "avg_pool2d": Kernel(_POOLING, coalesced=0.9, rule=_pooled),
    "batch_norm": Kernel(_BNORM, 8, coalesced=0.95),
    "layer_norm": Kernel(_BNORM, 8, coalesced=0.95),
}

_BACKWARD = {
    "add_bwd": Kernel(_ELEWISE, rule=_binary_bwd(1.0)),
    "sub_bwd": Kernel(_ELEWISE, rule=_binary_bwd(1.0)),
    "mul_bwd": Kernel(_ELEWISE, rule=_binary_bwd(1.0)),
    "div_bwd": Kernel(_ELEWISE, rule=_binary_bwd(2.0)),
    # one-input ops: FLOPs per input element
    "neg_bwd": Kernel(_ELEWISE, 1),
    "pow_bwd": Kernel(_ELEWISE, 3),
    "exp_bwd": Kernel(_ELEWISE, 1),
    "log_bwd": Kernel(_ELEWISE, 1),
    "sqrt_bwd": Kernel(_ELEWISE, 2),
    "relu_bwd": Kernel(_RELU, 1),
    "leaky_relu_bwd": Kernel(_RELU, 2),
    "sigmoid_bwd": Kernel(_ELEWISE, 3),
    "tanh_bwd": Kernel(_ELEWISE, 3),
    "gelu_bwd": Kernel(_ELEWISE, 10),
    "dropout_bwd": Kernel(_ELEWISE, 1),
    # a reduce's gradient broadcasts (sum) or scatters (max) back
    "reduce_sum_bwd": Kernel(_ELEWISE, 1, coalesced=0.85),
    "reduce_max_bwd": Kernel(_ELEWISE, 1, coalesced=0.85),
    # softmax's Jacobian-vector product: a dot-reduce along the axis plus
    # an elementwise combine, mirroring the forward's two kernels
    "softmax_bwd_reduce": Kernel(_REDUCE, 2, over_ins=True, coalesced=0.85),
    "softmax_bwd_elewise": Kernel(_ELEWISE, 2),
    "log_softmax_bwd_reduce": Kernel(_REDUCE, 1, over_ins=True, coalesced=0.85),
    "log_softmax_bwd_elewise": Kernel(_ELEWISE, 3),
    "gemm_bwd_da": Kernel(_GEMM, rule=_gemm_bwd_da),
    "gemm_bwd_db": Kernel(_GEMM, rule=_gemm_bwd_db),
    "outer_product_bwd_a": Kernel(_GEMM, rule=_outer_bwd),
    "outer_product_bwd_b": Kernel(_GEMM, rule=_outer_bwd),
    "transpose_bwd": Kernel(_OTHER, coalesced=0.5),
    "concat_bwd": Kernel(_OTHER, over_ins=True, coalesced=0.9),
    "stack_bwd": Kernel(_OTHER, over_ins=True, coalesced=0.9),
    "pad_bwd": Kernel(_OTHER),
    "embedding_scatter_bwd": Kernel(_OTHER, over_ins=True, coalesced=0.35),
    "upsample_nearest_bwd": Kernel(_OTHER, 1, over_ins=True, coalesced=0.8),
    # a convolution's bias gradient reduces over batch and space; its
    # weight and input gradients are implicit GEMMs
    "conv1d_bwd_b": Kernel(_REDUCE, coalesced=0.85, rule=_reduce),
    "conv1d_bwd_w": Kernel(_CONV, rule=_conv1d_wgrad),
    "conv1d_bwd_x": Kernel(_CONV, rule=_conv1d_dgrad),
    "conv2d_bwd_b": Kernel(_REDUCE, coalesced=0.85, rule=_reduce),
    "conv2d_bwd_w": Kernel(_CONV, rule=_conv2d_wgrad),
    "conv2d_bwd_x": Kernel(_CONV, rule=_conv2d_dgrad),
    "max_pool2d_bwd": Kernel(_POOLING, 1, over_ins=True, coalesced=0.9),
    "avg_pool2d_bwd": Kernel(_POOLING, coalesced=0.9, rule=_unpooled),
    # the fused normalization backward: the dgamma/dbeta reduces plus the
    # normalized input gradient
    "batch_norm_bwd": Kernel(_BNORM, 16, coalesced=0.95),
    "layer_norm_bwd": Kernel(_BNORM, 16, coalesced=0.95),
}

_OPTIMIZER = {
    # one fused update per parameter tensor
    "sgd_update": Kernel(_ELEWISE, rule=_sgd_update),
    "adam_update": Kernel(_ELEWISE, rule=_adam_update),
    "adamw_update": Kernel(_ELEWISE, rule=_adam_update),
    # one global L2-norm reduce over every gradient
    "grad_norm": Kernel(_REDUCE, coalesced=0.85, rule=_grad_norm),
}

#: Every kernel the op library and the optimizers emit, by name.
KERNELS: dict[str, Kernel] = {
    **_FORWARD,
    **{name: k._replace(pass_=PASS_BACKWARD) for name, k in _BACKWARD.items()},
    **{name: k._replace(pass_=PASS_OPTIMIZER) for name, k in _OPTIMIZER.items()},
}
