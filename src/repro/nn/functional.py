"""Differentiable operations over :class:`~repro.nn.tensor.Tensor`.

Every op does three things:

1. computes the forward value with numpy,
2. registers a backward closure on the output tensor (when grad is enabled),
3. emits a :class:`~repro.trace.events.KernelEvent` describing the device
   work (FLOPs, bytes, parallelism, access pattern) so a profiling session
   can attribute the op to a GPU kernel category — the same taxonomy the
   paper uses in its Figure-8 breakdown (Conv, BNorm, Elewise, Pooling,
   Relu, Gemm, Reduce, Other).

The kernel emission is a no-op unless a tracer is active, so training runs
pay only a branch per op.

Backward closures are traced execution paths too: each op snapshots its
(stage, modality) context at graph-build time and its closure emits
``pass_="backward"`` kernels carrying that context before computing the
gradients. All backward work descriptors are shape-derived, so the meta
backend (shape-only gradients, no numeric work) emits an event stream
identical to eager backward — the forward-path differential invariant,
extended to full training steps.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.backend import MetaArray, _meta, is_meta, meta_array, meta_like
from repro.nn.tensor import DEFAULT_DTYPE, Tensor, as_tensor, is_grad_enabled
from repro.trace import tracer as _tracer
from repro.trace.events import KernelCategory, PASS_BACKWARD
from repro.trace.tracer import UNSET, emit_kernel

_ITEMSIZE = np.dtype(DEFAULT_DTYPE).itemsize

# Kernel categories as module constants: every op reads one per launch,
# and an enum member read costs more than a global one.
_CONV = KernelCategory.CONV
_BNORM = KernelCategory.BNORM
_ELEWISE = KernelCategory.ELEWISE
_POOLING = KernelCategory.POOLING
_RELU = KernelCategory.RELU
_GEMM = KernelCategory.GEMM
_REDUCE = KernelCategory.REDUCE
_OTHER = KernelCategory.OTHER


def _contig(x):
    """``np.ascontiguousarray`` that passes meta arrays through unchanged.

    (``ascontiguousarray`` is one of the few numpy entry points that does
    not dispatch through ``__array_function__``.)
    """
    return x if isinstance(x, MetaArray) else np.ascontiguousarray(x)


def _make(data, parents, backward, name="") -> Tensor:
    """Build an output tensor, wiring the graph only when grad is enabled."""
    out = Tensor(data, name=name)
    if is_grad_enabled():
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = tuple(parents)
                out._backward = backward
                break
    return out


def _emit(name, category, flops, inputs_bytes, out_bytes, threads, coalesced=1.0, reuse=1.0, **meta):
    """Emit one forward kernel in the tracer's current context."""
    if _tracer._ACTIVE is not None:
        emit_kernel(name, category, flops, inputs_bytes, out_bytes, threads,
                    coalesced, reuse, None, UNSET, None, **meta)


# ---------------------------------------------------------------------------
# backward-pass tracing helpers
# ---------------------------------------------------------------------------
#
# Every op snapshots the tracer's (stage, modality) context while the
# forward graph is being built; its backward closure re-applies that
# context when it emits the backward kernels, long after the forward
# scopes have unwound. All backward work descriptors are derived from
# shapes only, so the meta and eager backends emit identical events — the
# same invariant the forward path already guarantees.


def _ctx():
    """Snapshot the tracer's (stage, modality, pass) context for this op's
    backward emissions (None when no tracer is active)."""
    tracer = _tracer._ACTIVE
    return None if tracer is None else tracer.context


def _emit_bwd(ctx, name, category, flops, inputs_bytes, out_bytes, threads,
              coalesced=1.0, reuse=1.0, **meta):
    """Emit one backward kernel carrying the forward op's context."""
    if _tracer._ACTIVE is None:
        return
    stage, modality = (None, UNSET) if ctx is None else ctx[:2]
    emit_kernel(name, category, flops, inputs_bytes, out_bytes, threads,
                coalesced, reuse, stage, modality, PASS_BACKWARD, **meta)


_GRAD_DTYPE = np.dtype(DEFAULT_DTYPE)


def _meta_accumulate(grad, *tensors) -> bool:
    """Shape-only gradient propagation for the meta backend.

    When ``grad`` is a :class:`MetaArray`, give each grad-requiring tensor
    that has no gradient yet a meta gradient of its own shape (what
    ``accumulate_grad`` does with a meta gradient; accumulating into one
    is a no-op) and report True so the caller skips its numeric path. The
    backward *events* were already emitted (shape-derived,
    backend-independent) before this call.
    """
    if not isinstance(grad, MetaArray):
        return False
    for t in tensors:
        if t is not None and t.requires_grad and t.grad is None:
            t.grad = _meta(t.data.shape, _GRAD_DTYPE)
    return True


def _unary_bwd(ctx, a, grad, name, category, flops, extra_read=0.0, coalesced=1.0):
    """Emit a one-input backward kernel; True when the meta path handled it.

    ``extra_read`` is whatever the closure reads besides the incoming
    gradient (saved inputs/outputs), in bytes.
    """
    _emit_bwd(ctx, name, category, flops=flops,
              inputs_bytes=float(a.nbytes + extra_read),
              out_bytes=float(a.nbytes), threads=a.size, coalesced=coalesced)
    return _meta_accumulate(grad, a)


# ---------------------------------------------------------------------------
# element-wise arithmetic
# ---------------------------------------------------------------------------


def _binary_elementwise(a: Tensor, b: Tensor, fwd, bwd_a, bwd_b, opname: str,
                        bwd_flops_per_out: float = 1.0) -> Tensor:
    data = fwd(a.data, b.data)
    out_bytes = data.nbytes
    ctx = _ctx()

    def backward(grad):
        active = int(a.requires_grad) + int(b.requires_grad)
        _emit_bwd(
            ctx, f"{opname}_bwd", _ELEWISE,
            flops=bwd_flops_per_out * data.size * active,
            inputs_bytes=float(out_bytes + a.nbytes + b.nbytes),
            out_bytes=float((a.nbytes if a.requires_grad else 0)
                            + (b.nbytes if b.requires_grad else 0)),
            threads=data.size,
        )
        if _meta_accumulate(grad, a, b):
            return
        if a.requires_grad:
            a.accumulate_grad(bwd_a(grad, a.data, b.data, data))
        if b.requires_grad:
            b.accumulate_grad(bwd_b(grad, a.data, b.data, data))

    _emit(
        opname,
        _ELEWISE,
        flops=data.size,
        inputs_bytes=a.nbytes + b.nbytes,
        out_bytes=out_bytes,
        threads=data.size,
    )
    return _make(data, (a, b), backward, name=opname)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary_elementwise(
        a, b, lambda x, y: x + y, lambda g, x, y, o: g, lambda g, x, y, o: g, "add"
    )


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary_elementwise(
        a, b, lambda x, y: x - y, lambda g, x, y, o: g, lambda g, x, y, o: -g, "sub"
    )


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary_elementwise(
        a, b, lambda x, y: x * y, lambda g, x, y, o: g * y, lambda g, x, y, o: g * x, "mul"
    )


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary_elementwise(
        a,
        b,
        lambda x, y: x / y,
        lambda g, x, y, o: g / y,
        lambda g, x, y, o: -g * x / (y * y),
        "div",
        bwd_flops_per_out=2.0,
    )


def neg(a: Tensor) -> Tensor:
    data = -a.data
    ctx = _ctx()

    def backward(grad):
        if _unary_bwd(ctx, a, grad, "neg_bwd", _ELEWISE, a.size):
            return
        a.accumulate_grad(-grad)

    _emit("neg", _ELEWISE, data.size, a.nbytes, data.nbytes, data.size)
    return _make(data, (a,), backward, name="neg")


def pow_(a: Tensor, exponent: float) -> Tensor:
    data = a.data**exponent
    ctx = _ctx()

    def backward(grad):
        if _unary_bwd(ctx, a, grad, "pow_bwd", _ELEWISE,
                      3 * a.size, extra_read=a.nbytes):
            return
        a.accumulate_grad(grad * exponent * a.data ** (exponent - 1))

    _emit("pow", _ELEWISE, 2 * data.size, a.nbytes, data.nbytes, data.size)
    return _make(data, (a,), backward, name="pow")


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)
    ctx = _ctx()

    def backward(grad):
        if _unary_bwd(ctx, a, grad, "exp_bwd", _ELEWISE,
                      a.size, extra_read=data.nbytes):
            return
        a.accumulate_grad(grad * data)

    _emit("exp", _ELEWISE, 4 * data.size, a.nbytes, data.nbytes, data.size)
    return _make(data, (a,), backward, name="exp")


def log(a: Tensor) -> Tensor:
    data = np.log(a.data)
    ctx = _ctx()

    def backward(grad):
        if _unary_bwd(ctx, a, grad, "log_bwd", _ELEWISE,
                      a.size, extra_read=a.nbytes):
            return
        a.accumulate_grad(grad / a.data)

    _emit("log", _ELEWISE, 4 * data.size, a.nbytes, data.nbytes, data.size)
    return _make(data, (a,), backward, name="log")


def sqrt(a: Tensor) -> Tensor:
    data = np.sqrt(a.data)
    ctx = _ctx()

    def backward(grad):
        if _unary_bwd(ctx, a, grad, "sqrt_bwd", _ELEWISE,
                      2 * a.size, extra_read=data.nbytes):
            return
        a.accumulate_grad(grad * 0.5 / np.maximum(data, 1e-12))

    _emit("sqrt", _ELEWISE, 2 * data.size, a.nbytes, data.nbytes, data.size)
    return _make(data, (a,), backward, name="sqrt")


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0)
    ctx = _ctx()

    def backward(grad):
        if _unary_bwd(ctx, a, grad, "relu_bwd", _RELU,
                      a.size, extra_read=a.nbytes):
            return
        a.accumulate_grad(grad * (a.data > 0))

    _emit("relu", _RELU, data.size, a.nbytes, data.nbytes, data.size)
    return _make(data, (a,), backward, name="relu")


def leaky_relu(a: Tensor, slope: float = 0.01) -> Tensor:
    data = np.where(a.data > 0, a.data, slope * a.data)
    ctx = _ctx()

    def backward(grad):
        if _unary_bwd(ctx, a, grad, "leaky_relu_bwd", _RELU,
                      2 * a.size, extra_read=a.nbytes):
            return
        a.accumulate_grad(grad * np.where(a.data > 0, 1.0, slope).astype(DEFAULT_DTYPE))

    _emit("leaky_relu", _RELU, 2 * data.size, a.nbytes, data.nbytes, data.size)
    return _make(data, (a,), backward, name="leaky_relu")


def sigmoid(a: Tensor) -> Tensor:
    data = 1.0 / (1.0 + np.exp(-a.data))
    ctx = _ctx()

    def backward(grad):
        if _unary_bwd(ctx, a, grad, "sigmoid_bwd", _ELEWISE,
                      3 * a.size, extra_read=data.nbytes):
            return
        a.accumulate_grad(grad * data * (1.0 - data))

    _emit("sigmoid", _ELEWISE, 5 * data.size, a.nbytes, data.nbytes, data.size)
    return _make(data, (a,), backward, name="sigmoid")


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)
    ctx = _ctx()

    def backward(grad):
        if _unary_bwd(ctx, a, grad, "tanh_bwd", _ELEWISE,
                      3 * a.size, extra_read=data.nbytes):
            return
        a.accumulate_grad(grad * (1.0 - data * data))

    _emit("tanh", _ELEWISE, 6 * data.size, a.nbytes, data.nbytes, data.size)
    return _make(data, (a,), backward, name="tanh")


def gelu(a: Tensor) -> Tensor:
    """GELU with the tanh approximation (as used by BERT/ALBERT)."""
    c = np.float32(np.sqrt(2.0 / np.pi))
    inner = c * (a.data + 0.044715 * (a.data * a.data * a.data))
    t = np.tanh(inner)
    data = 0.5 * a.data * (1.0 + t)
    ctx = _ctx()

    def backward(grad):
        if _unary_bwd(ctx, a, grad, "gelu_bwd", _ELEWISE,
                      10 * a.size, extra_read=a.nbytes + t.nbytes):
            return
        dt = (1.0 - t * t) * c * (1.0 + 3 * 0.044715 * a.data**2)
        a.accumulate_grad(grad * (0.5 * (1.0 + t) + 0.5 * a.data * dt))

    _emit("gelu", _ELEWISE, 12 * data.size, a.nbytes, data.nbytes, data.size)
    return _make(data.astype(DEFAULT_DTYPE), (a,), backward, name="gelu")


# ---------------------------------------------------------------------------
# reductions & normalizing transforms
# ---------------------------------------------------------------------------


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)
    ctx = _ctx()
    out_nbytes = int(data.nbytes)

    def backward(grad):
        # Broadcast of the (small) output gradient back over the input.
        _emit_bwd(ctx, "reduce_sum_bwd", _ELEWISE,
                  flops=float(a.size), inputs_bytes=float(out_nbytes),
                  out_bytes=float(a.nbytes), threads=a.size, coalesced=0.85)
        if _meta_accumulate(grad, a):
            return
        g = np.asarray(grad)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        a.accumulate_grad(np.broadcast_to(g, a.shape))

    _emit(
        "reduce_sum",
        _REDUCE,
        a.size,
        a.nbytes,
        int(data.nbytes),
        max(int(data.size), 1),
        coalesced=0.85,
    )
    return _make(data, (a,), backward, name="sum")


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = 1
        for ax in axes:
            count *= a.shape[ax]
    total = sum_(a, axis=axis, keepdims=keepdims)
    return mul(total, 1.0 / count)


def max_(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    data = a.data.max(axis=axis, keepdims=keepdims)
    arg = a.data.argmax(axis=axis)
    ctx = _ctx()
    out_nbytes = int(data.nbytes)

    def backward(grad):
        # Scatter of the output gradient into the argmax positions.
        _emit_bwd(ctx, "reduce_max_bwd", _ELEWISE,
                  flops=float(a.size), inputs_bytes=float(out_nbytes + arg.nbytes),
                  out_bytes=float(a.nbytes), threads=a.size, coalesced=0.85)
        if _meta_accumulate(grad, a):
            return
        g = np.asarray(grad)
        if not keepdims:
            g = np.expand_dims(g, axis=axis)
        mask = np.zeros_like(a.data)
        np.put_along_axis(mask, np.expand_dims(arg, axis=axis), 1.0, axis=axis)
        a.accumulate_grad(mask * np.broadcast_to(g, a.shape))

    _emit(
        "reduce_max",
        _REDUCE,
        a.size,
        a.nbytes,
        int(data.nbytes),
        max(int(data.size), 1),
        coalesced=0.85,
    )
    return _make(data, (a,), backward, name="max")


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)
    ctx = _ctx()

    def backward(grad):
        # The Jacobian-vector product: a dot-reduce along the softmax axis
        # plus an elementwise combine, mirroring the forward's two kernels.
        _emit_bwd(ctx, "softmax_bwd_reduce", _REDUCE,
                  flops=2.0 * a.size, inputs_bytes=float(2 * a.nbytes),
                  out_bytes=float(a.nbytes // max(a.shape[axis], 1)),
                  threads=a.size, coalesced=0.85)
        _emit_bwd(ctx, "softmax_bwd_elewise", _ELEWISE,
                  flops=2.0 * a.size, inputs_bytes=float(2 * a.nbytes),
                  out_bytes=float(a.nbytes), threads=a.size)
        if _meta_accumulate(grad, a):
            return
        dot = (grad * data).sum(axis=axis, keepdims=True)
        a.accumulate_grad(data * (grad - dot))

    # A softmax launches a max-reduce, an exp, a sum-reduce and a divide;
    # attribute the reduction work to Reduce and the rest to Elewise.
    _emit("softmax_reduce", _REDUCE, 2 * a.size, a.nbytes, a.nbytes // max(a.shape[axis], 1), a.size, coalesced=0.85)
    _emit("softmax_elewise", _ELEWISE, 6 * a.size, a.nbytes, data.nbytes, a.size)
    return _make(data.astype(DEFAULT_DTYPE), (a,), backward, name="softmax")


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    log_denominator = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - log_denominator
    ctx = _ctx()

    def backward(grad):
        _emit_bwd(ctx, "log_softmax_bwd_reduce", _REDUCE,
                  flops=float(a.size), inputs_bytes=float(a.nbytes),
                  out_bytes=float(a.nbytes // max(a.shape[axis], 1)),
                  threads=a.size, coalesced=0.85)
        _emit_bwd(ctx, "log_softmax_bwd_elewise", _ELEWISE,
                  flops=3.0 * a.size, inputs_bytes=float(2 * a.nbytes),
                  out_bytes=float(a.nbytes), threads=a.size)
        if _meta_accumulate(grad, a):
            return
        softmax_vals = np.exp(data)
        a.accumulate_grad(grad - softmax_vals * grad.sum(axis=axis, keepdims=True))

    _emit("log_softmax_reduce", _REDUCE, 2 * a.size, a.nbytes, a.nbytes // max(a.shape[axis], 1), a.size, coalesced=0.85)
    _emit("log_softmax_elewise", _ELEWISE, 5 * a.size, a.nbytes, data.nbytes, a.size)
    return _make(data.astype(DEFAULT_DTYPE), (a,), backward, name="log_softmax")


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data @ b.data
    ctx = _ctx()

    m = a.data.shape[-2] if a.data.ndim >= 2 else 1
    k = a.data.shape[-1]
    n = b.data.shape[-1] if b.data.ndim >= 2 else 1
    batch = math.prod(data.shape[:-2])
    gemm_flops = 2.0 * batch * m * k * n

    def backward(grad):
        # dA = dOut @ B^T and dB = A^T @ dOut: each a GEMM with the same
        # FLOP volume as the forward product.
        if a.requires_grad:
            _emit_bwd(ctx, "gemm_bwd_da", _GEMM,
                      flops=gemm_flops, inputs_bytes=float(data.nbytes + b.nbytes),
                      out_bytes=float(a.nbytes), threads=max(int(a.size), 1),
                      reuse=min(float(n), 64.0))
        if b.requires_grad:
            _emit_bwd(ctx, "gemm_bwd_db", _GEMM,
                      flops=gemm_flops, inputs_bytes=float(data.nbytes + a.nbytes),
                      out_bytes=float(b.nbytes), threads=max(int(b.size), 1),
                      reuse=min(float(m), 64.0))
        if _meta_accumulate(grad, a, b):
            return
        if a.requires_grad:
            ga = grad @ np.swapaxes(b.data, -1, -2)
            a.accumulate_grad(ga)
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ grad
            b.accumulate_grad(gb)

    _emit(
        "gemm",
        _GEMM,
        flops=gemm_flops,
        inputs_bytes=a.nbytes + b.nbytes,
        out_bytes=data.nbytes,
        threads=max(int(data.size), 1),
        reuse=min(float(k), 64.0),
        m=m,
        n=n,
        k=k,
    )
    return _make(data, (a, b), backward, name="matmul")


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ weight.T + bias`` with weight of shape (out, in)."""
    out = matmul(x, transpose(weight))
    if bias is not None:
        out = add(out, bias)
    return out


def outer_product(a: Tensor, b: Tensor) -> Tensor:
    """Batched outer product for tensor fusion: (B, M), (B, N) -> (B, M, N).

    This is the ``x ⊗ y`` fusion operator of Table 1.
    """
    data = np.einsum("bm,bn->bmn", a.data, b.data)
    ctx = _ctx()

    def backward(grad):
        if a.requires_grad:
            _emit_bwd(ctx, "outer_product_bwd_a", _GEMM,
                      flops=2.0 * data.size, inputs_bytes=float(data.nbytes + b.nbytes),
                      out_bytes=float(a.nbytes), threads=max(int(a.size), 1), reuse=2.0)
        if b.requires_grad:
            _emit_bwd(ctx, "outer_product_bwd_b", _GEMM,
                      flops=2.0 * data.size, inputs_bytes=float(data.nbytes + a.nbytes),
                      out_bytes=float(b.nbytes), threads=max(int(b.size), 1), reuse=2.0)
        if _meta_accumulate(grad, a, b):
            return
        if a.requires_grad:
            a.accumulate_grad(np.einsum("bmn,bn->bm", grad, b.data))
        if b.requires_grad:
            b.accumulate_grad(np.einsum("bmn,bm->bn", grad, a.data))

    _emit(
        "outer_product",
        _GEMM,
        flops=float(data.size),
        inputs_bytes=a.nbytes + b.nbytes,
        out_bytes=data.nbytes,
        threads=int(data.size),
        reuse=2.0,
    )
    return _make(data.astype(DEFAULT_DTYPE), (a, b), backward, name="outer_product")


# ---------------------------------------------------------------------------
# shape manipulation (memory-movement kernels -> Other)
# ---------------------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def backward(grad):
        a.accumulate_grad(grad.reshape(a.shape))

    # Reshape is free on contiguous data; no kernel is emitted.
    return _make(data, (a,), backward, name="reshape")


def transpose(a: Tensor, axes=None) -> Tensor:
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    data = np.transpose(a.data, axes)
    inverse = sorted(range(len(axes)), key=axes.__getitem__)
    ctx = _ctx()

    def backward(grad):
        _emit_bwd(ctx, "transpose_bwd", _OTHER, flops=0.0,
                  inputs_bytes=float(a.nbytes), out_bytes=float(a.nbytes),
                  threads=a.size, coalesced=0.5)
        if _meta_accumulate(grad, a):
            return
        a.accumulate_grad(np.transpose(grad, inverse))

    _emit("transpose", _OTHER, 0.0, a.nbytes, data.nbytes, a.size, coalesced=0.5)
    return _make(data, (a,), backward, name="transpose")


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    ctx = _ctx()

    def backward(grad):
        active_bytes = float(sum(t.nbytes for t in tensors if t.requires_grad))
        _emit_bwd(ctx, "concat_bwd", _OTHER, flops=0.0,
                  inputs_bytes=float(data.nbytes), out_bytes=active_bytes,
                  threads=int(data.size), coalesced=0.9)
        if _meta_accumulate(grad, *tensors):
            return
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(int(start), int(stop))
                t.accumulate_grad(grad[tuple(index)])

    _emit(
        "concat",
        _OTHER,
        0.0,
        sum(t.nbytes for t in tensors),
        data.nbytes,
        int(data.size),
        coalesced=0.9,
    )
    return _make(data, tuple(tensors), backward, name="concat")


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)
    ctx = _ctx()

    def backward(grad):
        active_bytes = float(sum(t.nbytes for t in tensors if t.requires_grad))
        _emit_bwd(ctx, "stack_bwd", _OTHER, flops=0.0,
                  inputs_bytes=float(data.nbytes), out_bytes=active_bytes,
                  threads=int(data.size), coalesced=0.9)
        if _meta_accumulate(grad, *tensors):
            return
        parts = np.split(grad, len(tensors), axis=axis)
        for t, g in zip(tensors, parts):
            if t.requires_grad:
                t.accumulate_grad(np.squeeze(g, axis=axis))

    _emit(
        "stack",
        _OTHER,
        0.0,
        sum(t.nbytes for t in tensors),
        data.nbytes,
        int(data.size),
        coalesced=0.9,
    )
    return _make(data, tuple(tensors), backward, name="stack")


def getitem(a: Tensor, index) -> Tensor:
    data = a.data[index]

    def backward(grad):
        # No kernel: the forward view emits none, so its scatter-back
        # stays un-evented too (both are free on contiguous data).
        if _meta_accumulate(grad, a):
            return
        full = np.zeros_like(a.data)
        np.add.at(full, index, grad)
        a.accumulate_grad(full)

    return _make(data, (a,), backward, name="getitem")


def pad2d(a: Tensor, padding: int) -> Tensor:
    """Zero-pad the two trailing spatial axes of an (N, C, H, W) tensor."""
    if padding == 0:
        return a
    p = padding
    data = np.pad(a.data, ((0, 0), (0, 0), (p, p), (p, p)))
    ctx = _ctx()

    def backward(grad):
        _emit_bwd(ctx, "pad_bwd", _OTHER, flops=0.0,
                  inputs_bytes=float(data.nbytes), out_bytes=float(a.nbytes),
                  threads=a.size)
        if _meta_accumulate(grad, a):
            return
        a.accumulate_grad(grad[:, :, p:-p, p:-p])

    _emit("pad", _OTHER, 0.0, a.nbytes, data.nbytes, int(data.size))
    return _make(data, (a,), backward, name="pad2d")


def dropout(a: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity at inference time."""
    if not training or p <= 0.0:
        return a
    keep = 1.0 - p
    if is_meta(a.data):
        # No mask is sampled on the meta backend: the kernel event below is
        # shape-derived, and meta tracing never runs backward.
        mask = None
        data = meta_like(a.data)
    else:
        mask = (rng.random(a.shape) < keep).astype(DEFAULT_DTYPE) / keep
        data = a.data * mask
    ctx = _ctx()

    def backward(grad):
        _emit_bwd(ctx, "dropout_bwd", _ELEWISE, flops=float(a.size),
                  inputs_bytes=float(2 * a.nbytes), out_bytes=float(a.nbytes),
                  threads=a.size)
        if _meta_accumulate(grad, a) or mask is None:
            return
        a.accumulate_grad(grad * mask)

    _emit("dropout", _ELEWISE, data.size, a.nbytes, data.nbytes, data.size)
    return _make(data, (a,), backward, name="dropout")


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Row gather: weight (V, D) indexed by an integer array of any shape."""
    if is_meta(indices):
        idx = indices
        data = meta_array((*idx.shape, weight.shape[1]), weight.dtype)
    else:
        idx = np.asarray(indices)
        data = weight.data[idx]
    ctx = _ctx()

    def backward(grad):
        # Scatter-add of row gradients back into the embedding table.
        _emit_bwd(ctx, "embedding_scatter_bwd", _OTHER, flops=0.0,
                  inputs_bytes=float(data.nbytes), out_bytes=float(weight.nbytes),
                  threads=int(data.size), coalesced=0.35)
        if _meta_accumulate(grad, weight) or is_meta(idx):
            return
        full = np.zeros_like(weight.data)
        np.add.at(full, idx.reshape(-1), grad.reshape(-1, weight.shape[1]))
        weight.accumulate_grad(full)

    _emit(
        "embedding_gather",
        _OTHER,
        0.0,
        float(idx.size * weight.shape[1] * _ITEMSIZE),
        data.nbytes,
        int(data.size),
        coalesced=0.35,
    )
    return _make(data, (weight,), backward, name="embedding")


# ---------------------------------------------------------------------------
# convolution & pooling
# ---------------------------------------------------------------------------


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int):
    """Extract sliding windows: (N,C,H,W) -> (N, OH*OW, C*kh*kw)."""
    n, c, h, w = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :]
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n, oh * ow, c * kh * kw)
    return _contig(cols), oh, ow


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None, stride: int = 1, padding: int = 0) -> Tensor:
    """2D convolution via im2col + GEMM (the cuDNN implicit-GEMM analogue).

    ``x``: (N, C, H, W); ``weight``: (O, C, kh, kw); ``bias``: (O,) or None.
    """
    n, c, h, w = x.shape
    o, c2, kh, kw = weight.shape
    if c != c2:
        raise ValueError(f"conv2d channel mismatch: input {c} vs weight {c2}")
    p = padding
    x_pad = np.pad(x.data, ((0, 0), (0, 0), (p, p), (p, p))) if p else x.data
    cols, oh, ow = _im2col(x_pad, kh, kw, stride)
    w_flat = weight.data.reshape(o, -1)
    out = cols @ w_flat.T  # (N, OH*OW, O)
    if bias is not None:
        out = out + bias.data
    data = out.transpose(0, 2, 1).reshape(n, o, oh, ow)
    ctx = _ctx()
    flops = 2.0 * n * oh * ow * o * c * kh * kw
    cols_bytes = float(n * oh * ow * c * kh * kw * _ITEMSIZE)

    def backward(grad):
        # wgrad and dgrad are each implicit GEMMs with the forward's FLOP
        # volume; the bias gradient is a reduce over batch and space.
        if bias is not None and bias.requires_grad:
            _emit_bwd(ctx, "conv2d_bwd_b", _REDUCE,
                      flops=float(n * oh * ow * o), inputs_bytes=float(data.nbytes),
                      out_bytes=float(bias.nbytes), threads=max(int(o), 1),
                      coalesced=0.85)
        if weight.requires_grad:
            _emit_bwd(ctx, "conv2d_bwd_w", _CONV, flops=flops,
                      inputs_bytes=float(data.nbytes) + cols_bytes,
                      out_bytes=float(weight.nbytes), threads=int(weight.size),
                      reuse=min(float(n * oh * ow), 96.0), kh=kh, kw=kw, stride=stride)
        if x.requires_grad:
            _emit_bwd(ctx, "conv2d_bwd_x", _CONV, flops=flops,
                      inputs_bytes=float(data.nbytes + weight.nbytes),
                      out_bytes=float(x.nbytes), threads=int(x.size),
                      reuse=min(float(o * kh * kw), 96.0), kh=kh, kw=kw, stride=stride)
        if _meta_accumulate(grad, x, weight, bias):
            return
        gout = grad.reshape(n, o, oh * ow).transpose(0, 2, 1)  # (N, OH*OW, O)
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(gout.sum(axis=(0, 1)))
        if weight.requires_grad:
            gw = np.einsum("npo,npk->ok", gout, cols)
            weight.accumulate_grad(gw.reshape(weight.shape))
        if x.requires_grad:
            gcols = gout @ w_flat  # (N, OH*OW, C*kh*kw)
            gcols = gcols.reshape(n, oh, ow, c, kh, kw)
            gx_pad = np.zeros_like(x_pad)
            for i in range(kh):
                for j in range(kw):
                    gx_pad[:, :, i : i + oh * stride : stride, j : j + ow * stride : stride] += (
                        gcols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
                    )
            gx = gx_pad[:, :, p : p + h, p : p + w] if p else gx_pad
            x.accumulate_grad(gx)
    _emit(
        "conv2d",
        _CONV,
        flops=flops,
        inputs_bytes=x.nbytes + weight.nbytes + (bias.nbytes if bias is not None else 0),
        out_bytes=data.nbytes,
        threads=int(data.size),
        reuse=min(float(c * kh * kw), 96.0),
        kh=kh,
        kw=kw,
        stride=stride,
    )
    return _make(data.astype(DEFAULT_DTYPE), tuple(t for t in (x, weight, bias) if t is not None), backward, name="conv2d")


def conv1d(x: Tensor, weight: Tensor, bias: Tensor | None, stride: int = 1, padding: int = 0) -> Tensor:
    """1D convolution over (N, C, T) inputs; weight (O, C, k).

    Used by the temporal encoders (force/torque and audio streams).
    """
    n, c, t = x.shape
    o, c2, kw = weight.shape
    if c != c2:
        raise ValueError(f"conv1d channel mismatch: input {c} vs weight {c2}")
    p = padding
    x_pad = np.pad(x.data, ((0, 0), (0, 0), (p, p))) if p else x.data
    windows = np.lib.stride_tricks.sliding_window_view(x_pad, kw, axis=2)
    windows = windows[:, :, ::stride, :]  # (N, C, OT, k)
    ot = windows.shape[2]
    cols = _contig(windows.transpose(0, 2, 1, 3)).reshape(n, ot, c * kw)
    w_flat = weight.data.reshape(o, -1)
    out = cols @ w_flat.T  # (N, OT, O)
    if bias is not None:
        out = out + bias.data
    data = out.transpose(0, 2, 1)  # (N, O, OT)
    ctx = _ctx()
    flops = 2.0 * n * ot * o * c * kw
    cols_bytes = float(n * ot * c * kw * _ITEMSIZE)

    def backward(grad):
        if bias is not None and bias.requires_grad:
            _emit_bwd(ctx, "conv1d_bwd_b", _REDUCE,
                      flops=float(n * ot * o), inputs_bytes=float(data.nbytes),
                      out_bytes=float(bias.nbytes), threads=max(int(o), 1),
                      coalesced=0.85)
        if weight.requires_grad:
            _emit_bwd(ctx, "conv1d_bwd_w", _CONV, flops=flops,
                      inputs_bytes=float(data.nbytes) + cols_bytes,
                      out_bytes=float(weight.nbytes), threads=int(weight.size),
                      reuse=min(float(n * ot), 64.0), kh=1, kw=kw, stride=stride)
        if x.requires_grad:
            _emit_bwd(ctx, "conv1d_bwd_x", _CONV, flops=flops,
                      inputs_bytes=float(data.nbytes + weight.nbytes),
                      out_bytes=float(x.nbytes), threads=int(x.size),
                      reuse=min(float(o * kw), 64.0), kh=1, kw=kw, stride=stride)
        if _meta_accumulate(grad, x, weight, bias):
            return
        gout = grad.transpose(0, 2, 1)  # (N, OT, O)
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(gout.sum(axis=(0, 1)))
        if weight.requires_grad:
            gw = np.einsum("npo,npk->ok", gout, cols)
            weight.accumulate_grad(gw.reshape(weight.shape))
        if x.requires_grad:
            gcols = (gout @ w_flat).reshape(n, ot, c, kw)
            gx_pad = np.zeros_like(x_pad)
            for j in range(kw):
                gx_pad[:, :, j : j + ot * stride : stride] += gcols[:, :, :, j].transpose(0, 2, 1)
            gx = gx_pad[:, :, p : p + t] if p else gx_pad
            x.accumulate_grad(gx)
    _emit(
        "conv1d",
        _CONV,
        flops=flops,
        inputs_bytes=x.nbytes + weight.nbytes + (bias.nbytes if bias is not None else 0),
        out_bytes=data.nbytes,
        threads=int(data.size),
        reuse=min(float(c * kw), 64.0),
        kh=1,
        kw=kw,
        stride=stride,
    )
    return _make(
        _contig(data.astype(DEFAULT_DTYPE)),
        tuple(tt for tt in (x, weight, bias) if tt is not None),
        backward,
        name="conv1d",
    )


def _pool_windows(x: np.ndarray, kernel: int, stride: int):
    n, c, h, w = x.shape
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :]
    return windows.reshape(n, c, oh, ow, kernel * kernel), oh, ow


def max_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None) -> Tensor:
    stride = stride or kernel
    windows, oh, ow = _pool_windows(x.data, kernel, stride)
    arg = windows.argmax(axis=-1)
    data = np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0]
    n, c = x.shape[0], x.shape[1]
    ctx = _ctx()

    def backward(grad):
        _emit_bwd(ctx, "max_pool2d_bwd", _POOLING,
                  flops=float(data.size), inputs_bytes=float(data.nbytes + arg.nbytes),
                  out_bytes=float(x.nbytes), threads=int(data.size), coalesced=0.9)
        if _meta_accumulate(grad, x):
            return
        gx = np.zeros_like(x.data)
        ni, ci, hi, wi = np.indices((n, c, oh, ow))
        h_idx = hi * stride + arg // kernel
        w_idx = wi * stride + arg % kernel
        np.add.at(gx, (ni, ci, h_idx, w_idx), grad)
        x.accumulate_grad(gx)

    _emit(
        "max_pool2d",
        _POOLING,
        flops=float(windows.size),
        inputs_bytes=x.nbytes,
        out_bytes=data.nbytes,
        threads=int(data.size),
        coalesced=0.9,
    )
    return _make(_contig(data), (x,), backward, name="max_pool2d")


def avg_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None) -> Tensor:
    stride = stride or kernel
    windows, oh, ow = _pool_windows(x.data, kernel, stride)
    data = windows.mean(axis=-1)
    ctx = _ctx()

    def backward(grad):
        _emit_bwd(ctx, "avg_pool2d_bwd", _POOLING,
                  flops=float(kernel * kernel * data.size),
                  inputs_bytes=float(data.nbytes), out_bytes=float(x.nbytes),
                  threads=int(data.size), coalesced=0.9)
        if _meta_accumulate(grad, x):
            return
        gx = np.zeros_like(x.data)
        scale = 1.0 / (kernel * kernel)
        for i in range(kernel):
            for j in range(kernel):
                gx[:, :, i : i + oh * stride : stride, j : j + ow * stride : stride] += grad * scale
        x.accumulate_grad(gx)

    _emit(
        "avg_pool2d",
        _POOLING,
        flops=float(windows.size),
        inputs_bytes=x.nbytes,
        out_bytes=data.nbytes,
        threads=int(data.size),
        coalesced=0.9,
    )
    return _make(_contig(data), (x,), backward, name="avg_pool2d")


def upsample_nearest2d(x: Tensor, scale: int = 2) -> Tensor:
    """Nearest-neighbour spatial upsampling (used by the U-Net decoder)."""
    data = x.data.repeat(scale, axis=2).repeat(scale, axis=3)
    ctx = _ctx()

    def backward(grad):
        _emit_bwd(ctx, "upsample_nearest_bwd", _OTHER,
                  flops=float(data.size), inputs_bytes=float(data.nbytes),
                  out_bytes=float(x.nbytes), threads=int(data.size), coalesced=0.8)
        if _meta_accumulate(grad, x):
            return
        n, c, h, w = x.shape
        g = grad.reshape(n, c, h, scale, w, scale).sum(axis=(3, 5))
        x.accumulate_grad(g)

    _emit(
        "upsample_nearest",
        _OTHER,
        0.0,
        x.nbytes,
        data.nbytes,
        int(data.size),
        coalesced=0.8,
    )
    return _make(data, (x,), backward, name="upsample_nearest2d")


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalization over an (N, C, ...) tensor, normalizing per channel.

    ``running_mean``/``running_var`` are updated in place during training,
    matching the PyTorch semantics the paper's workloads rely on.
    """
    axes = (0,) + tuple(range(2, x.ndim))
    shape = (1, x.shape[1]) + (1,) * (x.ndim - 2)
    if training:
        mean_val = x.data.mean(axis=axes)
        var_val = x.data.var(axis=axes)
        if not is_meta(x.data):
            # Meta tensors have no statistics; leave running buffers as-is.
            running_mean *= 1.0 - momentum
            running_mean += momentum * mean_val
            running_var *= 1.0 - momentum
            running_var += momentum * var_val
    else:
        mean_val = running_mean
        var_val = running_var
    inv_std = 1.0 / np.sqrt(var_val + eps)
    x_hat = (x.data - mean_val.reshape(shape)) * inv_std.reshape(shape)
    data = gamma.data.reshape(shape) * x_hat + beta.data.reshape(shape)

    count = x.size / x.shape[1]
    ctx = _ctx()

    def backward(grad):
        # dgamma/dbeta reduces plus the normalized input gradient — the
        # fused cuDNN bnorm-backward kernel.
        _emit_bwd(ctx, "batch_norm_bwd", _BNORM,
                  flops=16.0 * x.size, inputs_bytes=float(2 * x.nbytes + gamma.nbytes),
                  out_bytes=float(x.nbytes + gamma.nbytes + beta.nbytes),
                  threads=x.size, coalesced=0.95)
        if _meta_accumulate(grad, x, gamma, beta):
            return
        if beta.requires_grad:
            beta.accumulate_grad(grad.sum(axis=axes))
        if gamma.requires_grad:
            gamma.accumulate_grad((grad * x_hat).sum(axis=axes))
        if x.requires_grad:
            g = grad * gamma.data.reshape(shape)
            if training:
                gsum = g.sum(axis=axes, keepdims=True)
                gdot = (g * x_hat).sum(axis=axes, keepdims=True)
                gx = (g - gsum / count - x_hat * gdot / count) * inv_std.reshape(shape)
            else:
                gx = g * inv_std.reshape(shape)
            x.accumulate_grad(gx)

    _emit(
        "batch_norm",
        _BNORM,
        flops=8.0 * x.size,
        inputs_bytes=x.nbytes + gamma.nbytes + beta.nbytes,
        out_bytes=data.nbytes,
        threads=x.size,
        coalesced=0.95,
    )
    return _make(data.astype(DEFAULT_DTYPE), (x, gamma, beta), backward, name="batch_norm")


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis."""
    mean_val = x.data.mean(axis=-1, keepdims=True)
    var_val = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var_val + eps)
    x_hat = (x.data - mean_val) * inv_std
    data = gamma.data * x_hat + beta.data
    d = x.shape[-1]
    ctx = _ctx()

    def backward(grad):
        _emit_bwd(ctx, "layer_norm_bwd", _BNORM,
                  flops=16.0 * x.size, inputs_bytes=float(2 * x.nbytes + gamma.nbytes),
                  out_bytes=float(x.nbytes + gamma.nbytes + beta.nbytes),
                  threads=x.size, coalesced=0.95)
        if _meta_accumulate(grad, x, gamma, beta):
            return
        if beta.requires_grad:
            beta.accumulate_grad(grad.reshape(-1, d).sum(axis=0))
        if gamma.requires_grad:
            gamma.accumulate_grad((grad * x_hat).reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            g = grad * gamma.data
            gsum = g.sum(axis=-1, keepdims=True)
            gdot = (g * x_hat).sum(axis=-1, keepdims=True)
            x.accumulate_grad((g - gsum / d - x_hat * gdot / d) * inv_std)

    _emit(
        "layer_norm",
        _BNORM,
        flops=8.0 * x.size,
        inputs_bytes=x.nbytes + gamma.nbytes + beta.nbytes,
        out_bytes=data.nbytes,
        threads=x.size,
        coalesced=0.95,
    )
    return _make(data.astype(DEFAULT_DTYPE), (x, gamma, beta), backward, name="layer_norm")


def glu(a: Tensor, b: Tensor) -> Tensor:
    """Gated linear unit ``a * sigmoid(b)`` — the LinearGLU fusion of Table 1."""
    return mul(a, sigmoid(b))


# ---------------------------------------------------------------------------
# operator dunders on Tensor
# ---------------------------------------------------------------------------


def _attach_operators() -> None:
    Tensor.__add__ = lambda self, other: add(self, other)
    Tensor.__radd__ = lambda self, other: add(other, self)
    Tensor.__sub__ = lambda self, other: sub(self, other)
    Tensor.__rsub__ = lambda self, other: sub(other, self)
    Tensor.__mul__ = lambda self, other: mul(self, other)
    Tensor.__rmul__ = lambda self, other: mul(other, self)
    Tensor.__truediv__ = lambda self, other: div(self, other)
    Tensor.__rtruediv__ = lambda self, other: div(other, self)
    Tensor.__neg__ = neg
    Tensor.__pow__ = pow_
    Tensor.__matmul__ = matmul
    Tensor.__getitem__ = getitem
    Tensor.reshape = lambda self, *shape: reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)
    Tensor.transpose = transpose
    Tensor.sum = sum_
    Tensor.mean = mean
    Tensor.max = max_


_attach_operators()
