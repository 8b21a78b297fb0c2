"""Differentiable operations over :class:`~repro.nn.tensor.Tensor`.

Every op does three things:

1. computes the forward value with numpy,
2. registers a backward closure on the output tensor (when grad is enabled),
3. emits its kernels through :func:`repro.nn.ops.emit`, naming each kernel
   and the arrays it reads and writes. The kernel table
   (:data:`repro.nn.ops.KERNELS`) turns those into the work descriptors
   (FLOPs, bytes, parallelism, access pattern) and the kernel category of
   the paper's Figure-8 breakdown (Conv, BNorm, Elewise, Pooling, Relu,
   Gemm, Reduce, Other).

The kernel emission is a no-op unless a tracer is active, so training runs
pay only a branch per op.

Backward closures are traced execution paths too: each op snapshots its
(stage, modality) context at graph-build time and its closure emits
backward kernels carrying that context before computing the gradients.
All work descriptors are shape-derived, so the meta backend (shape-only
gradients, no numeric work) emits an event stream identical to eager
backward — the forward-path differential invariant, extended to full
training steps.
"""

from __future__ import annotations

import numpy as np

from repro.nn.backend import MetaArray, _meta, is_meta, meta_array, meta_like
from repro.nn.ops import emit as _emit
from repro.nn import tensor as _tensor
from repro.nn.tensor import DEFAULT_DTYPE, Tensor, as_tensor


def _contig(x):
    """``np.ascontiguousarray`` that passes meta arrays through unchanged.

    (``ascontiguousarray`` is one of the few numpy entry points that does
    not dispatch through ``__array_function__``.)
    """
    return x if isinstance(x, MetaArray) else np.ascontiguousarray(x)


def _make(data, parents, backward, name="") -> Tensor:
    """Build an output tensor, wiring the graph only when grad is enabled."""
    out = Tensor(data, False, name)  # positional: a keyword builds a dict per op
    if _tensor._GRAD_ENABLED:
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = tuple(parents)
                out._backward = backward
                break
    return out


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


# ---------------------------------------------------------------------------
# element-wise arithmetic
# ---------------------------------------------------------------------------


def _binary(name: str, a: Tensor, b: Tensor, data, grad_a, grad_b) -> Tensor:
    """Shared by the four binary ops: emit kernel ``name`` and wire a
    backward that differentiates into each input taking a gradient, with
    ``grad_a(grad, x, y)`` / ``grad_b(grad, x, y)``."""

    def backward(grad):
        x, y = a.data, b.data
        if a.requires_grad:
            outs = (x, y) if b.requires_grad else (x,)
        else:
            outs = (y,)
        _emit(name + "_bwd", (data, x, y), outs, ctx=ctx)
        if _meta_accumulate(grad, a, b):
            return
        if a.requires_grad:
            a.accumulate_grad(grad_a(grad, x, y))
        if b.requires_grad:
            b.accumulate_grad(grad_b(grad, x, y))

    ctx = _emit(name, (a.data, b.data), (data,))
    return _make(data, (a, b), backward, name=name)


# The binary ops' gradients with respect to x and to y, given the incoming
# gradient g.


def _d_plus(g, x, y):
    return g


def _d_minus(g, x, y):
    return -g


def _d_mul_x(g, x, y):
    return g * y


def _d_mul_y(g, x, y):
    return g * x


def _d_div_x(g, x, y):
    return g / y


def _d_div_y(g, x, y):
    return -g * x / (y * y)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary("add", a, b, a.data + b.data, _d_plus, _d_plus)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary("sub", a, b, a.data - b.data, _d_plus, _d_minus)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary("mul", a, b, a.data * b.data, _d_mul_x, _d_mul_y)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary("div", a, b, a.data / b.data, _d_div_x, _d_div_y)


def _unary(name: str, a: Tensor, data, grad_fn, *saved) -> Tensor:
    """Shared by the one-input elementwise ops: emit kernel ``name`` and
    wire a backward whose kernel reads the incoming gradient and ``saved``,
    from which ``grad_fn(grad, *saved)`` computes the input gradient."""

    def backward(grad):
        _emit(name + "_bwd", (data, *saved), (a.data,), ctx=ctx)
        if _meta_accumulate(grad, a):
            return
        a.accumulate_grad(grad_fn(grad, *saved))

    ctx = _emit(name, (a.data,), (data,))
    return _make(data, (a,), backward, name=name)


def _times(grad, y):
    return grad * y


def neg(a: Tensor) -> Tensor:
    return _unary("neg", a, -a.data, np.negative)


def pow_(a: Tensor, exponent: float) -> Tensor:
    return _unary("pow", a, a.data**exponent,
                  lambda grad, x: grad * exponent * x ** (exponent - 1), a.data)


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)
    return _unary("exp", a, data, _times, data)


def log(a: Tensor) -> Tensor:
    return _unary("log", a, np.log(a.data), lambda grad, x: grad / x, a.data)


def sqrt(a: Tensor) -> Tensor:
    data = np.sqrt(a.data)
    return _unary("sqrt", a, data, lambda grad, y: grad * 0.5 / np.maximum(y, 1e-12), data)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def _relu_grad(grad, x):
    return grad * (x > 0)


def relu(a: Tensor) -> Tensor:
    return _unary("relu", a, np.maximum(a.data, 0), _relu_grad, a.data)


def leaky_relu(a: Tensor, slope: float = 0.01) -> Tensor:
    return _unary("leaky_relu", a, np.where(a.data > 0, a.data, slope * a.data),
                  lambda grad, x: grad * np.where(x > 0, 1.0, slope).astype(DEFAULT_DTYPE),
                  a.data)


def _sigmoid_grad(grad, y):
    return grad * y * (1.0 - y)


def sigmoid(a: Tensor) -> Tensor:
    data = 1.0 / (1.0 + np.exp(-a.data))
    return _unary("sigmoid", a, data, _sigmoid_grad, data)


def _tanh_grad(grad, y):
    return grad * (1.0 - y * y)


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)
    return _unary("tanh", a, data, _tanh_grad, data)


_GELU_C = np.float32(np.sqrt(2.0 / np.pi))


def _gelu_grad(grad, x, t):
    dt = (1.0 - t * t) * _GELU_C * (1.0 + 3 * 0.044715 * x**2)
    return grad * (0.5 * (1.0 + t) + 0.5 * x * dt)


def gelu(a: Tensor) -> Tensor:
    """GELU with the tanh approximation (as used by BERT/ALBERT)."""
    x = a.data
    t = np.tanh(_GELU_C * (x + 0.044715 * (x * x * x)))
    return _unary("gelu", a, (0.5 * x * (1.0 + t)).astype(DEFAULT_DTYPE), _gelu_grad, x, t)


# ---------------------------------------------------------------------------
# reductions & normalizing transforms
# ---------------------------------------------------------------------------


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad):
        # Broadcast of the (small) output gradient back over the input.
        _emit("reduce_sum_bwd", (data,), (a.data,), ctx=ctx)
        if _meta_accumulate(grad, a):
            return
        g = np.asarray(grad)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        a.accumulate_grad(np.broadcast_to(g, a.shape))

    ctx = _emit("reduce_sum", (a.data,), (data,))
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

    def backward(grad):
        # Scatter of the output gradient into the argmax positions.
        _emit("reduce_max_bwd", (data, arg), (a.data,), ctx=ctx)
        if _meta_accumulate(grad, a):
            return
        g = np.asarray(grad)
        if not keepdims:
            g = np.expand_dims(g, axis=axis)
        mask = np.zeros_like(a.data)
        np.put_along_axis(mask, np.expand_dims(arg, axis=axis), 1.0, axis=axis)
        a.accumulate_grad(mask * np.broadcast_to(g, a.shape))

    ctx = _emit("reduce_max", (a.data,), (data,))
    return _make(data, (a,), backward, name="max")


def _softmax(name: str, a: Tensor, axis: int, log: bool) -> Tensor:
    """Shared by softmax and log_softmax. Each launches a row reduce and an
    elementwise pass, and its backward another pair: the reduce is
    ``sum(grad * y)`` for softmax and ``sum(grad)`` for log_softmax."""
    row_max = a.data.max(axis=axis, keepdims=True)
    shifted = a.data - row_max
    if log:
        data = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    else:
        e = np.exp(shifted)
        data = e / e.sum(axis=axis, keepdims=True)

    def backward(grad):
        _emit(name + "_bwd_reduce", (data,) if log else (data, data), (row_max,), ctx=ctx)
        _emit(name + "_bwd_elewise", (data, data), (a.data,), ctx=ctx)
        if _meta_accumulate(grad, a):
            return
        if log:
            a.accumulate_grad(grad - np.exp(data) * grad.sum(axis=axis, keepdims=True))
        else:
            a.accumulate_grad(data * (grad - (grad * data).sum(axis=axis, keepdims=True)))

    ctx = _emit(name + "_reduce", (a.data,), (row_max,))
    _emit(name + "_elewise", (a.data,), (data,))
    return _make(data.astype(DEFAULT_DTYPE), (a,), backward, name=name)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    return _softmax("softmax", a, axis, log=False)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    return _softmax("log_softmax", a, axis, log=True)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data @ b.data

    def backward(grad):
        # dA = dOut @ B^T and dB = A^T @ dOut, reading a 1-D A as a row and
        # a 1-D B as a column; each gradient then drops that axis again.
        x, y = a.data, b.data
        if a.requires_grad:
            _emit("gemm_bwd_da", (data, y), (x,), ctx=ctx)
        if b.requires_grad:
            _emit("gemm_bwd_db", (data, x), (y,), ctx=ctx)
        if _meta_accumulate(grad, a, b):
            return
        if y.ndim == 1:
            y, grad = y[:, None], grad[..., None]
        if x.ndim == 1:
            x, grad = x[None], grad[..., None, :]
        if a.requires_grad:
            da = grad @ np.swapaxes(y, -1, -2)
            a.accumulate_grad(da[..., 0, :] if a.data.ndim == 1 else da)
        if b.requires_grad:
            db = np.swapaxes(x, -1, -2) @ grad
            b.accumulate_grad(db[..., 0] if b.data.ndim == 1 else db)

    ctx = _emit("gemm", (a.data, b.data), (data,))
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

    def backward(grad):
        x, y = a.data, b.data
        if a.requires_grad:
            _emit("outer_product_bwd_a", (data, y), (x,), ctx=ctx)
        if b.requires_grad:
            _emit("outer_product_bwd_b", (data, x), (y,), ctx=ctx)
        if _meta_accumulate(grad, a, b):
            return
        if a.requires_grad:
            a.accumulate_grad(np.einsum("bmn,bn->bm", grad, y))
        if b.requires_grad:
            b.accumulate_grad(np.einsum("bmn,bm->bn", grad, x))

    ctx = _emit("outer_product", (a.data, b.data), (data,))
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

    def backward(grad):
        _emit("transpose_bwd", (data,), (a.data,), ctx=ctx)
        if _meta_accumulate(grad, a):
            return
        a.accumulate_grad(np.transpose(grad, inverse))

    ctx = _emit("transpose", (a.data,), (data,))
    return _make(data, (a,), backward, name="transpose")


def _join(name: str, join, tensors: list[Tensor], axis: int, widths: list[int]) -> Tensor:
    """Shared by concat and stack: ``join`` the inputs along ``axis``, where
    input i fills ``widths[i]`` positions of the output's ``axis``."""
    arrays = [t.data for t in tensors]
    data = join(arrays, axis=axis)

    def backward(grad):
        _emit(name + "_bwd", (data,), [t.data for t in tensors if t.requires_grad], ctx=ctx)
        if _meta_accumulate(grad, *tensors):
            return
        index = [slice(None)] * grad.ndim
        start = 0
        for t, width in zip(tensors, widths):
            if t.requires_grad:
                index[axis] = slice(start, start + width)
                t.accumulate_grad(grad[tuple(index)].reshape(t.shape))
            start += width

    ctx = _emit(name, arrays, (data,))
    return _make(data, tensors, backward, name=name)


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    return _join("concat", np.concatenate, tensors, axis, [t.shape[axis] for t in tensors])


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    return _join("stack", np.stack, tensors, axis, [1] * len(tensors))


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

    def backward(grad):
        _emit("pad_bwd", (data,), (a.data,), ctx=ctx)
        if _meta_accumulate(grad, a):
            return
        a.accumulate_grad(grad[:, :, p:-p, p:-p])

    ctx = _emit("pad", (a.data,), (data,))
    return _make(data, (a,), backward, name="pad2d")


def dropout(a: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity at inference time."""
    if not training or p <= 0.0:
        return a
    if is_meta(a.data):
        # No mask is sampled on the meta backend: the kernels are
        # shape-derived, and a meta backward does no numeric work.
        mask = data = meta_like(a.data)
    else:
        keep = 1.0 - p
        mask = (rng.random(a.shape) < keep).astype(DEFAULT_DTYPE) / keep
        data = a.data * mask
    return _unary("dropout", a, data, _times, mask)


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Row gather: weight (V, D) indexed by an integer array of any shape."""
    if is_meta(indices):
        idx = indices
        data = meta_array((*idx.shape, weight.shape[1]), weight.dtype)
    else:
        idx = np.asarray(indices)
        data = weight.data[idx]

    def backward(grad):
        # Scatter-add of row gradients back into the embedding table.
        _emit("embedding_scatter_bwd", (data,), (weight.data,), ctx=ctx)
        if _meta_accumulate(grad, weight) or is_meta(idx):
            return
        full = np.zeros_like(weight.data)
        np.add.at(full, idx.reshape(-1), grad.reshape(-1, weight.shape[1]))
        weight.accumulate_grad(full)

    # The gather reads the rows it writes.
    ctx = _emit("embedding_gather", (data,), (data,))
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


def _conv(name: str, x: Tensor, weight: Tensor, bias: Tensor | None, stride: int,
          padding: int, x_pad, cols, data) -> Tensor:
    """Shared by conv1d and conv2d: emit kernel ``name`` and wire the
    backward. ``cols`` is the (N, positions, C*k) im2col matrix of the
    padded input ``x_pad``, and ``data`` the (N, O, *spatial) output."""

    def backward(grad):
        # wgrad and dgrad are each implicit GEMMs; the bias gradient is a
        # reduce over batch and space.
        if bias is not None and bias.requires_grad:
            _emit(name + "_bwd_b", (data,), (bias.data,), ctx=ctx)
        if weight.requires_grad:
            _emit(name + "_bwd_w", (data, cols), (weight.data,), stride, ctx=ctx)
        if x.requires_grad:
            _emit(name + "_bwd_x", (data, weight.data), (x.data,), stride, ctx=ctx)
        if _meta_accumulate(grad, x, weight, bias):
            return
        n, o, *spatial = data.shape
        gout = grad.reshape(n, o, -1).transpose(0, 2, 1)  # (N, positions, O)
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(gout.sum(axis=(0, 1)))
        if weight.requires_grad:
            gw = np.einsum("npo,npk->ok", gout, cols)
            weight.accumulate_grad(gw.reshape(weight.shape))
        if x.requires_grad:
            kernel = weight.shape[2:]
            gcols = (gout @ weight.data.reshape(o, -1)).reshape(n, *spatial, -1, *kernel)
            gx_pad = np.zeros_like(x_pad)
            positions = (slice(None),) * (len(spatial) + 2)
            for offset in np.ndindex(*kernel):
                window = tuple(slice(i, i + s * stride, stride) for i, s in zip(offset, spatial))
                gx_pad[(slice(None), slice(None), *window)] += np.moveaxis(
                    gcols[positions + offset], -1, 1)
            p = padding
            if p:
                gx_pad = gx_pad[(slice(None), slice(None),
                                 *(slice(p, p + s) for s in x.shape[2:]))]
            x.accumulate_grad(gx_pad)

    if bias is None:
        ctx = _emit(name, (x.data, weight.data), (data,), stride)
        return _make(data, (x, weight), backward, name=name)
    ctx = _emit(name, (x.data, weight.data, bias.data), (data,), stride)
    return _make(data, (x, weight, bias), backward, name=name)


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
    out = cols @ weight.data.reshape(o, -1).T  # (N, OH*OW, O)
    if bias is not None:
        out = out + bias.data
    data = out.transpose(0, 2, 1).reshape(n, o, oh, ow).astype(DEFAULT_DTYPE)
    return _conv("conv2d", x, weight, bias, stride, padding, x_pad, cols, data)


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
    out = cols @ weight.data.reshape(o, -1).T  # (N, OT, O)
    if bias is not None:
        out = out + bias.data
    data = _contig(out.transpose(0, 2, 1).astype(DEFAULT_DTYPE))  # (N, O, OT)
    return _conv("conv1d", x, weight, bias, stride, padding, x_pad, cols, data)


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
    data = _contig(np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0])
    n, c = x.shape[0], x.shape[1]

    def backward(grad):
        _emit("max_pool2d_bwd", (data, arg), (x.data,), ctx=ctx)
        if _meta_accumulate(grad, x):
            return
        gx = np.zeros_like(x.data)
        ni, ci, hi, wi = np.indices((n, c, oh, ow))
        h_idx = hi * stride + arg // kernel
        w_idx = wi * stride + arg % kernel
        np.add.at(gx, (ni, ci, h_idx, w_idx), grad)
        x.accumulate_grad(gx)

    ctx = _emit("max_pool2d", (x.data,), (data,), kernel)
    return _make(data, (x,), backward, name="max_pool2d")


def avg_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None) -> Tensor:
    stride = stride or kernel
    windows, oh, ow = _pool_windows(x.data, kernel, stride)
    data = _contig(windows.mean(axis=-1))

    def backward(grad):
        _emit("avg_pool2d_bwd", (data,), (x.data,), kernel, ctx=ctx)
        if _meta_accumulate(grad, x):
            return
        gx = np.zeros_like(x.data)
        scale = 1.0 / (kernel * kernel)
        for i in range(kernel):
            for j in range(kernel):
                gx[:, :, i : i + oh * stride : stride, j : j + ow * stride : stride] += grad * scale
        x.accumulate_grad(gx)

    ctx = _emit("avg_pool2d", (x.data,), (data,), kernel)
    return _make(data, (x,), backward, name="avg_pool2d")


def upsample_nearest2d(x: Tensor, scale: int = 2) -> Tensor:
    """Nearest-neighbour spatial upsampling (used by the U-Net decoder)."""
    data = x.data.repeat(scale, axis=2).repeat(scale, axis=3)

    def backward(grad):
        _emit("upsample_nearest_bwd", (data,), (x.data,), ctx=ctx)
        if _meta_accumulate(grad, x):
            return
        n, c, h, w = x.shape
        g = grad.reshape(n, c, h, scale, w, scale).sum(axis=(3, 5))
        x.accumulate_grad(g)

    ctx = _emit("upsample_nearest", (x.data,), (data,))
    return _make(data, (x,), backward, name="upsample_nearest2d")


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def _normalize(name: str, x: Tensor, gamma: Tensor, beta: Tensor, data, grads,
               *saved) -> Tensor:
    """Shared by batch_norm and layer_norm: emit kernel ``name`` and wire
    its fused backward, which reads the incoming gradient, ``x`` and
    ``gamma`` and writes all three gradients through
    ``grads(grad, x, gamma, beta, *saved)``."""

    def backward(grad):
        _emit(name + "_bwd", (data, x.data, gamma.data), (x.data, gamma.data, beta.data),
              ctx=ctx)
        if _meta_accumulate(grad, x, gamma, beta):
            return
        grads(grad, x, gamma, beta, *saved)

    ctx = _emit(name, (x.data, gamma.data, beta.data), (data,))
    return _make(data.astype(DEFAULT_DTYPE), (x, gamma, beta), backward, name=name)


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
    inv_std = (1.0 / np.sqrt(var_val + eps)).reshape(shape)
    x_hat = (x.data - mean_val.reshape(shape)) * inv_std
    data = gamma.data.reshape(shape) * x_hat + beta.data.reshape(shape)
    return _normalize("batch_norm", x, gamma, beta, data, _batch_norm_grads,
                      x_hat, inv_std, axes, training)


def _batch_norm_grads(grad, x, gamma, beta, x_hat, inv_std, axes, training):
    if beta.requires_grad:
        beta.accumulate_grad(grad.sum(axis=axes))
    if gamma.requires_grad:
        gamma.accumulate_grad((grad * x_hat).sum(axis=axes))
    if x.requires_grad:
        g = grad * gamma.data.reshape(inv_std.shape)
        if training:
            count = x.size / x.shape[1]
            gsum = g.sum(axis=axes, keepdims=True)
            gdot = (g * x_hat).sum(axis=axes, keepdims=True)
            x.accumulate_grad((g - gsum / count - x_hat * gdot / count) * inv_std)
        else:
            x.accumulate_grad(g * inv_std)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis."""
    mean_val = x.data.mean(axis=-1, keepdims=True)
    var_val = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var_val + eps)
    x_hat = (x.data - mean_val) * inv_std
    data = gamma.data * x_hat + beta.data
    return _normalize("layer_norm", x, gamma, beta, data, _layer_norm_grads, x_hat, inv_std)


def _layer_norm_grads(grad, x, gamma, beta, x_hat, inv_std):
    d = x.shape[-1]
    if beta.requires_grad:
        beta.accumulate_grad(grad.reshape(-1, d).sum(axis=0))
    if gamma.requires_grad:
        gamma.accumulate_grad((grad * x_hat).reshape(-1, d).sum(axis=0))
    if x.requires_grad:
        g = grad * gamma.data
        gsum = g.sum(axis=-1, keepdims=True)
        gdot = (g * x_hat).sum(axis=-1, keepdims=True)
        x.accumulate_grad((g - gsum / d - x_hat * gdot / d) * inv_std)


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
