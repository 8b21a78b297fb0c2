"""Pluggable execution backends: eager numpy vs shape-only meta tensors.

The profiling pipeline never reads activation *values* — only shapes,
FLOPs and byte counts flow into the analytical device models. The
**eager** backend (the default) executes every op with dense numpy math;
the **meta** backend executes the same op graph symbolically: a
:class:`MetaArray` carries only ``shape`` and ``dtype`` and every
operation propagates shapes analytically, so tracing costs O(#ops)
instead of O(#FLOPs) and batch sizes far beyond physical RAM become
traceable. This is the capture/replay split tape-based autograd systems
use, applied to trace capture.

The design leans on numpy's dispatch protocols (NEP 13 / NEP 18):
``MetaArray`` implements ``__array_ufunc__`` and ``__array_function__``,
so the ops in :mod:`repro.nn.functional` run unchanged — ``np.exp``,
``@``, ``np.pad``, ``sliding_window_view`` … all route here and return
shape-only results. Mixed real/meta expressions work too (real model
weights against meta activations): numpy defers to this class, and the
result is meta. Where exact numpy indexing semantics matter
(``__getitem__``, ``sliding_window_view``) shapes are inferred by
applying the real numpy operation to a zero-stride *phantom* array of
the same shape — an O(1) view, never a dense allocation — and a bounded
memo answers repeats of the same basic index. Ufunc results broadcast in
pure Python and take their dtype from a memo of numpy's own resolution
per (ufunc, operand dtypes).

The invariant that makes the backend trustworthy (and that tier-1
enforces differentially): for every workload, the meta backend emits an
event stream identical, event for event, to the eager backend's.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

BACKENDS = ("eager", "meta")

_CURRENT_BACKEND = "eager"


def validate_backend(name: str) -> str:
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}; available: {list(BACKENDS)}")
    return name


def current_backend() -> str:
    """The process-wide default backend (``"eager"`` unless changed)."""
    return _CURRENT_BACKEND


def set_backend(name: str) -> None:
    """Set the process-wide default backend."""
    global _CURRENT_BACKEND
    _CURRENT_BACKEND = validate_backend(name)


@contextlib.contextmanager
def backend_scope(name: str):
    """Temporarily switch the default backend inside the block."""
    global _CURRENT_BACKEND
    prev = _CURRENT_BACKEND
    _CURRENT_BACKEND = validate_backend(name)
    try:
        yield
    finally:
        _CURRENT_BACKEND = prev


def resolve_backend(name: str | None) -> str:
    """``None`` -> the current default; otherwise validate and return."""
    return _CURRENT_BACKEND if name is None else validate_backend(name)


# ---------------------------------------------------------------------------
# shape-inference helpers
# ---------------------------------------------------------------------------


def _shape_of(x) -> tuple[int, ...]:
    return tuple(getattr(x, "shape", ()))


def _dtype_operand(x):
    """What to feed ``np.result_type`` for one operand."""
    if isinstance(x, MetaArray):
        return x.dtype
    if isinstance(x, (np.ndarray, np.generic)):
        return x.dtype
    return x  # python scalar: weak promotion (NEP 50)


def _phantom(shape: tuple[int, ...], dtype) -> np.ndarray:
    """A zero-stride stand-in array: full shape, one element of storage.

    Views of it (basic indexing, ``sliding_window_view``) are O(1), which
    lets us borrow numpy's exact indexing semantics without dense data.
    """
    return np.broadcast_to(np.empty((), dtype=dtype), shape)


def _broadcast(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """numpy's broadcasting rule for two shapes, in pure Python."""
    if a == b or not b:
        return a
    if not a:
        return b
    if len(a) > len(b) and a[len(a) - len(b):] == b:  # a bias against a batch
        return a
    n = max(len(a), len(b))
    out = []
    for x, y in zip((1,) * (n - len(a)) + a, (1,) * (n - len(b)) + b):
        if x == y or y == 1:
            out.append(x)
        elif x == 1:
            out.append(y)
        else:
            return tuple(np.broadcast_shapes(a, b))  # raises numpy's error
    return tuple(out)


_BOOL = np.dtype(bool)
_PYTHON_SCALARS = frozenset((bool, int, float, complex))

#: (ufunc, *operand keys) -> the result dtype numpy resolves for them.
_UFUNC_DTYPES: dict[tuple, np.dtype] = {}


def _ufunc_meta(ufunc, inputs) -> "MetaArray":
    """The shape-only result of ``ufunc(*inputs)``: the one rule behind
    ``__array_ufunc__`` and the operator dunders.

    Each operand gives its shape and its part of a result-dtype memo key.
    Arrays (meta or real) and numpy scalars key by dtype. Python scalars
    are shapeless and key by type: under NEP 50 an ``int``/``float``/
    ``complex`` promotes weakly, by kind and never by value, and a
    ``bool`` promotes like numpy's bool. Shapes broadcast in pure Python
    (``np.matmul`` contracts instead); the dtype is numpy's own
    resolution, asked once per key and memoized.
    """
    key = [ufunc]
    shape = None
    for x in inputs:
        cls = type(x)
        if cls is MetaArray or cls is np.ndarray or (
                cls not in _PYTHON_SCALARS
                and isinstance(x, (np.ndarray, np.generic))):
            key.append(x.dtype)
            s = x.shape
        else:
            key.append(_BOOL if cls is bool else cls)
            s = ()
        if shape is None:
            shape = s
        elif ufunc is np.matmul:
            shape = _matmul_shape(shape, s)
        elif shape != s:
            shape = _broadcast(shape, s)
    key = tuple(key)
    dtype = _UFUNC_DTYPES.get(key)
    if dtype is None:
        resolved = ufunc.resolve_dtypes(key[1:] + (None,) * ufunc.nout)
        dtype = _UFUNC_DTYPES[key] = resolved[ufunc.nin]
    return _meta(shape, dtype)


#: Bounded memo of view shapes: (op, shape, dtype, args) -> (shape, dtype).
_VIEWS: dict[tuple, tuple] = {}
_VIEWS_LIMIT = 4096


def _view(key, make):
    """``(shape, dtype)`` of the phantom view ``make()`` builds, memoized
    under ``key`` (None: not memoizable)."""
    hit = _VIEWS.get(key) if key is not None else None
    if hit is None:
        view = make()
        hit = (view.shape, view.dtype)
        if key is not None:
            if len(_VIEWS) >= _VIEWS_LIMIT:
                _VIEWS.clear()
            _VIEWS[key] = hit
    return hit


def _basic_index_key(index):
    """A hashable spelling of a basic index (ints, slices, ``None``,
    ``Ellipsis``), or None for anything else."""
    key = []
    for item in index if type(index) is tuple else (index,):
        if type(item) is slice:
            bounds = (item.start, item.stop, item.step)
            for b in bounds:
                if b is not None and type(b) is not int:
                    return None
            key.append(bounds)
        elif type(item) is int or item is None or item is Ellipsis:
            key.append(item)
        else:
            return None
    return tuple(key)


def _int_spec(v) -> bool:
    """An int, a tuple of ints, or None (a hashable window/axis spec)."""
    return (v is None or type(v) is int
            or (type(v) is tuple and all(type(d) is int for d in v)))


def _matmul_shape(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if not a or not b:
        raise ValueError("matmul: input operands do not have enough dimensions")
    a2 = (1,) + a if len(a) == 1 else a
    b2 = b + (1,) if len(b) == 1 else b
    if a2[-1] != b2[-2]:
        raise ValueError(f"matmul: dimension mismatch {a} @ {b}")
    out = _broadcast(a2[:-2], b2[:-2]) + (a2[-2], b2[-1])
    if len(a) == 1:
        out = out[:-2] + out[-1:]
    if len(b) == 1:
        out = out[:-1]
    return out


def _normalize_axis(axis: int, ndim: int) -> int:
    if not -ndim <= axis < ndim:
        raise np.exceptions.AxisError(axis, ndim)
    return axis % ndim


def _reduce_shape(shape: tuple[int, ...], axis, keepdims: bool) -> tuple[int, ...]:
    if axis is None:
        return tuple(1 for _ in shape) if keepdims else ()
    axes = axis if isinstance(axis, tuple) else (axis,)
    axes = {_normalize_axis(ax, len(shape)) for ax in axes}
    if keepdims:
        return tuple(1 if i in axes else d for i, d in enumerate(shape))
    return tuple(d for i, d in enumerate(shape) if i not in axes)


#: NEP-18 dispatch table: numpy function -> meta implementation.
_HANDLED_FUNCTIONS: dict = {}


def _implements(np_function):
    def decorator(fn):
        _HANDLED_FUNCTIONS[np_function] = fn
        return fn

    return decorator


class MetaArray:
    """An array that carries only ``shape`` and ``dtype`` — no data.

    Every numpy operation the DNN framework's forward path performs is
    either intercepted through the dispatch protocols or implemented as a
    method, propagating shapes with numpy's exact semantics. Reading
    values (``float()``, ``np.asarray``, ``bool()``) raises, so silent
    materialization is impossible.
    """

    __slots__ = ("shape", "dtype", "size")

    def __init__(self, shape, dtype=np.float32):
        shape = tuple(map(int, shape))
        _SET_SHAPE(self, shape)
        _SET_DTYPE(self, np.dtype(dtype))
        _SET_SIZE(self, math.prod(shape))

    def __setattr__(self, name, value):
        raise AttributeError("MetaArray is immutable")

    # -- introspection ---------------------------------------------------------

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def nbytes(self) -> int:
        return self.size * self.dtype.itemsize

    @property
    def T(self) -> "MetaArray":
        return _meta(self.shape[::-1], self.dtype)

    def __len__(self) -> int:
        if not self.shape:
            raise TypeError("len() of unsized MetaArray")
        return self.shape[0]

    def __repr__(self) -> str:
        return f"MetaArray(shape={self.shape}, dtype={self.dtype})"

    # -- refuse to materialize ---------------------------------------------------

    def __array__(self, *args, **kwargs):
        raise TypeError(
            "MetaArray carries no data; run under the eager backend to get values"
        )

    def __bool__(self):
        raise TypeError("the truth value of a MetaArray is undefined (no data)")

    def __float__(self):
        raise TypeError("MetaArray carries no data; cannot convert to float")

    def __int__(self):
        raise TypeError("MetaArray carries no data; cannot convert to int")

    def item(self):
        raise TypeError("MetaArray carries no data; item() is unavailable")

    # -- shape methods ------------------------------------------------------------

    def astype(self, dtype, *args, **kwargs) -> "MetaArray":
        return _meta(self.shape, np.dtype(dtype))

    def copy(self) -> "MetaArray":
        return _meta(self.shape, self.dtype)

    def reshape(self, *shape) -> "MetaArray":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        shape = tuple(map(int, shape))
        if shape and min(shape) < 0:
            if sum(d < 0 for d in shape) > 1:
                raise ValueError("can only specify one unknown dimension")
            known = math.prod(d for d in shape if d >= 0)
            if known == 0 or self.size % known:
                raise ValueError(f"cannot reshape array of size {self.size} into shape {shape}")
            shape = tuple(self.size // known if d < 0 else d for d in shape)
        if math.prod(shape) != self.size:
            raise ValueError(f"cannot reshape array of size {self.size} into shape {shape}")
        return _meta(shape, self.dtype)

    def transpose(self, *axes) -> "MetaArray":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes or axes == (None,):
            axes = tuple(reversed(range(self.ndim)))
        if sorted(axes) != list(range(self.ndim)):
            raise ValueError(f"invalid transpose axes {axes} for ndim {self.ndim}")
        return _meta(tuple(self.shape[ax] for ax in axes), self.dtype)

    def repeat(self, repeats: int, axis: int | None = None) -> "MetaArray":
        repeats = int(repeats)
        if axis is None:
            return MetaArray((self.size * repeats,), self.dtype)
        axis = _normalize_axis(axis, self.ndim)
        shape = list(self.shape)
        shape[axis] *= repeats
        return MetaArray(shape, self.dtype)

    def __getitem__(self, index) -> "MetaArray":
        # Borrow numpy's exact indexing semantics from a zero-stride
        # phantom. Basic indexing is an O(1) view; the forward path uses
        # nothing else, and repeats of a basic index hit the memo.
        key = _basic_index_key(index)
        if key is not None:
            key = ("getitem", self.shape, self.dtype, key)
        return _meta(*_view(key, lambda: _phantom(self.shape, self.dtype)[index]))

    # -- reductions ---------------------------------------------------------------

    def _reduce(self, axis, keepdims, dtype=None) -> "MetaArray":
        return _meta(_reduce_shape(self.shape, axis, keepdims), dtype or self.dtype)

    def sum(self, axis=None, keepdims: bool = False) -> "MetaArray":
        return self._reduce(axis, keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "MetaArray":
        return self._reduce(axis, keepdims)

    def min(self, axis=None, keepdims: bool = False) -> "MetaArray":
        return self._reduce(axis, keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "MetaArray":
        dtype = self.dtype if np.issubdtype(self.dtype, np.floating) else np.dtype(np.float64)
        return self._reduce(axis, keepdims, dtype)

    def var(self, axis=None, keepdims: bool = False) -> "MetaArray":
        dtype = self.dtype if np.issubdtype(self.dtype, np.floating) else np.dtype(np.float64)
        return self._reduce(axis, keepdims, dtype)

    def argmax(self, axis=None, keepdims: bool = False) -> "MetaArray":
        return self._reduce(axis, keepdims, np.dtype(np.intp))

    def argmin(self, axis=None, keepdims: bool = False) -> "MetaArray":
        return self._reduce(axis, keepdims, np.dtype(np.intp))

    # -- numpy dispatch protocols ---------------------------------------------------

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if method != "__call__" or out is not None:
            return NotImplemented
        return _ufunc_meta(ufunc, inputs)

    def __array_function__(self, func, types, args, kwargs):
        impl = _HANDLED_FUNCTIONS.get(func)
        if impl is None:
            return NotImplemented
        return impl(*args, **kwargs)

    # -- operator dunders (the same rule as __array_ufunc__) ------------------------

    def __add__(self, other):
        return _ufunc_meta(np.add, (self, other))

    def __radd__(self, other):
        return _ufunc_meta(np.add, (other, self))

    def __sub__(self, other):
        return _ufunc_meta(np.subtract, (self, other))

    def __rsub__(self, other):
        return _ufunc_meta(np.subtract, (other, self))

    def __mul__(self, other):
        return _ufunc_meta(np.multiply, (self, other))

    def __rmul__(self, other):
        return _ufunc_meta(np.multiply, (other, self))

    def __truediv__(self, other):
        return _ufunc_meta(np.true_divide, (self, other))

    def __rtruediv__(self, other):
        return _ufunc_meta(np.true_divide, (other, self))

    def __pow__(self, other):
        return _ufunc_meta(np.power, (self, other))

    def __matmul__(self, other):
        return _ufunc_meta(np.matmul, (self, other))

    def __rmatmul__(self, other):
        return _ufunc_meta(np.matmul, (other, self))

    def __neg__(self):
        return _meta(self.shape, self.dtype)

    def __gt__(self, other):
        return _ufunc_meta(np.greater, (self, other))

    def __ge__(self, other):
        return _ufunc_meta(np.greater_equal, (self, other))

    def __lt__(self, other):
        return _ufunc_meta(np.less, (self, other))

    def __le__(self, other):
        return _ufunc_meta(np.less_equal, (self, other))


_NEW = object.__new__
_SET_SHAPE = MetaArray.shape.__set__
_SET_DTYPE = MetaArray.dtype.__set__
_SET_SIZE = MetaArray.size.__set__


def _meta(shape: tuple[int, ...], dtype: np.dtype) -> MetaArray:
    """Trusted constructor: ``shape`` is already a tuple of ints and
    ``dtype`` a ``np.dtype`` (results the meta ops computed themselves)."""
    out = _NEW(MetaArray)
    _SET_SHAPE(out, shape)
    _SET_DTYPE(out, dtype)
    _SET_SIZE(out, math.prod(shape))
    return out


# ---------------------------------------------------------------------------
# constructors / predicates
# ---------------------------------------------------------------------------


def is_meta(x) -> bool:
    """True when ``x`` (array or Tensor) is backed by a :class:`MetaArray`."""
    return isinstance(getattr(x, "data", x), MetaArray)


def meta_array(shape, dtype=np.float32) -> MetaArray:
    return MetaArray(shape, dtype)


def meta_like(x) -> MetaArray:
    """A MetaArray with ``x``'s shape and dtype (x may be real or meta)."""
    return MetaArray(_shape_of(x), getattr(x, "dtype", np.float32))


# ---------------------------------------------------------------------------
# NEP-18 implementations for the functions the forward path uses
# ---------------------------------------------------------------------------


def _pad_pairs(pad_width, ndim: int) -> list[tuple[int, int]]:
    if isinstance(pad_width, int):
        return [(pad_width, pad_width)] * ndim
    pw = list(pad_width)
    if pw and isinstance(pw[0], int):
        if len(pw) == 1:
            return [(pw[0], pw[0])] * ndim
        if len(pw) == 2:
            return [(pw[0], pw[1])] * ndim
        raise ValueError(f"unsupported pad_width {pad_width!r}")
    if len(pw) != ndim:
        raise ValueError(f"pad_width {pad_width!r} does not match ndim {ndim}")
    return [(int(b), int(a)) for b, a in pw]


@_implements(np.pad)
def _meta_pad(array, pad_width, mode="constant", **kwargs):
    pairs = _pad_pairs(pad_width, array.ndim)
    shape = tuple(d + b + a for d, (b, a) in zip(array.shape, pairs))
    return MetaArray(shape, array.dtype)


@_implements(np.lib.stride_tricks.sliding_window_view)
def _meta_sliding_window_view(x, window_shape, axis=None, **kwargs):
    key = None
    if _int_spec(window_shape) and _int_spec(axis):
        key = ("sliding_window_view", x.shape, x.dtype, window_shape, axis)
    return _meta(*_view(key, lambda: np.lib.stride_tricks.sliding_window_view(
        _phantom(x.shape, x.dtype), window_shape, axis=axis)))


@_implements(np.concatenate)
def _meta_concatenate(arrays, axis=0, **kwargs):
    arrays = list(arrays)
    first = arrays[0]
    ax = _normalize_axis(0 if axis is None else axis, len(_shape_of(first)))
    for other in arrays[1:]:
        s1, s2 = _shape_of(first), _shape_of(other)
        if len(s1) != len(s2) or any(
            i != ax and a != b for i, (a, b) in enumerate(zip(s1, s2))
        ):
            raise ValueError(f"concatenate shape mismatch: {s1} vs {s2}")
    shape = list(_shape_of(first))
    shape[ax] = sum(_shape_of(a)[ax] for a in arrays)
    dtype = np.result_type(*(_dtype_operand(a) for a in arrays))
    return MetaArray(shape, dtype)


@_implements(np.stack)
def _meta_stack(arrays, axis=0, **kwargs):
    arrays = list(arrays)
    base = _shape_of(arrays[0])
    for other in arrays[1:]:
        if _shape_of(other) != base:
            raise ValueError("all input arrays must have the same shape")
    ax = _normalize_axis(axis, len(base) + 1)
    shape = base[:ax] + (len(arrays),) + base[ax:]
    dtype = np.result_type(*(_dtype_operand(a) for a in arrays))
    return MetaArray(shape, dtype)


@_implements(np.split)
def _meta_split(ary, indices_or_sections, axis=0):
    ax = _normalize_axis(axis, ary.ndim)
    if not isinstance(indices_or_sections, int):
        raise NotImplementedError("meta split supports integer sections only")
    n = indices_or_sections
    if ary.shape[ax] % n:
        raise ValueError("array split does not result in an equal division")
    shape = list(ary.shape)
    shape[ax] //= n
    return [MetaArray(shape, ary.dtype) for _ in range(n)]


@_implements(np.transpose)
def _meta_transpose(a, axes=None):
    return a.transpose(axes)


@_implements(np.reshape)
def _meta_reshape(a, shape, **kwargs):
    return a.reshape(shape)


@_implements(np.expand_dims)
def _meta_expand_dims(a, axis):
    axes = axis if isinstance(axis, tuple) else (axis,)
    ndim = a.ndim + len(axes)
    axes = {_normalize_axis(ax, ndim) for ax in axes}
    it = iter(a.shape)
    shape = tuple(1 if i in axes else next(it) for i in range(ndim))
    return MetaArray(shape, a.dtype)


@_implements(np.squeeze)
def _meta_squeeze(a, axis=None):
    if axis is None:
        shape = tuple(d for d in a.shape if d != 1)
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        axes = {_normalize_axis(ax, a.ndim) for ax in axes}
        if any(a.shape[ax] != 1 for ax in axes):
            raise ValueError("cannot squeeze axis with size != 1")
        shape = tuple(d for i, d in enumerate(a.shape) if i not in axes)
    return MetaArray(shape, a.dtype)


@_implements(np.broadcast_to)
def _meta_broadcast_to(array, shape, **kwargs):
    np.broadcast_shapes(_shape_of(array), tuple(shape))  # validates
    return MetaArray(tuple(shape), array.dtype)


@_implements(np.where)
def _meta_where(condition, x=None, y=None):
    if x is None or y is None:
        raise NotImplementedError("meta where requires the three-argument form")
    shape = np.broadcast_shapes(*(_shape_of(v) for v in (condition, x, y)))
    dtype = np.result_type(_dtype_operand(x), _dtype_operand(y))
    return MetaArray(shape, dtype)


@_implements(np.take_along_axis)
def _meta_take_along_axis(arr, indices, axis):
    if axis is None:
        return MetaArray(_shape_of(indices), arr.dtype)
    ax = _normalize_axis(axis, arr.ndim)
    arr_rest = tuple(d for i, d in enumerate(arr.shape) if i != ax)
    idx_shape = _shape_of(indices)
    idx_rest = tuple(d for i, d in enumerate(idx_shape) if i != ax)
    rest = np.broadcast_shapes(arr_rest, idx_rest)
    it = iter(rest)
    shape = tuple(idx_shape[i] if i == ax else next(it) for i in range(arr.ndim))
    return MetaArray(shape, arr.dtype)


@_implements(np.einsum)
def _meta_einsum(subscripts, *operands, **kwargs):
    if "->" not in subscripts or "." in subscripts:
        raise NotImplementedError(
            f"meta einsum needs an explicit output and no ellipsis: {subscripts!r}"
        )
    lhs, rhs = subscripts.replace(" ", "").split("->")
    terms = lhs.split(",")
    if len(terms) != len(operands):
        raise ValueError("einsum operand count mismatch")
    dims: dict[str, int] = {}
    for term, op in zip(terms, operands):
        shape = _shape_of(op)
        if len(term) != len(shape):
            raise ValueError(f"einsum term {term!r} does not match shape {shape}")
        for letter, dim in zip(term, shape):
            if dims.setdefault(letter, dim) != dim:
                raise ValueError(f"einsum dimension mismatch for {letter!r}")
    dtype = np.result_type(*(_dtype_operand(op) for op in operands))
    return MetaArray(tuple(dims[letter] for letter in rhs), dtype)


def _meta_like_factory(dtype_default=None):
    def impl(a, dtype=None, **kwargs):
        return MetaArray(_shape_of(a), dtype or dtype_default or a.dtype)

    return impl


_implements(np.ones_like)(_meta_like_factory())
_implements(np.zeros_like)(_meta_like_factory())
_implements(np.empty_like)(_meta_like_factory())


@_implements(np.sum)
def _meta_sum(a, axis=None, keepdims=False, **kwargs):
    return a.sum(axis=axis, keepdims=keepdims)


@_implements(np.mean)
def _meta_mean(a, axis=None, keepdims=False, **kwargs):
    return a.mean(axis=axis, keepdims=keepdims)


@_implements(np.var)
def _meta_var(a, axis=None, keepdims=False, **kwargs):
    return a.var(axis=axis, keepdims=keepdims)


@_implements(np.max)
def _meta_max(a, axis=None, keepdims=False, **kwargs):
    return a.max(axis=axis, keepdims=keepdims)


@_implements(np.min)
def _meta_min(a, axis=None, keepdims=False, **kwargs):
    return a.min(axis=axis, keepdims=keepdims)


@_implements(np.argmax)
def _meta_argmax(a, axis=None, **kwargs):
    return a.argmax(axis=axis)


@_implements(np.prod)
def _meta_prod(a, axis=None, keepdims=False, **kwargs):
    dtype = a.dtype if np.issubdtype(a.dtype, np.floating) else np.dtype(np.int64)
    return a._reduce(axis, keepdims, dtype)
