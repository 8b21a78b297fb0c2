"""A reverse-mode autodiff tensor on top of numpy.

This is the execution substrate that stands in for PyTorch in this
reproduction: every workload in :mod:`repro.workloads` is built from these
tensors, so algorithm-level measurements (accuracy, parameter counts,
FLOPs) are genuine computations rather than estimates.

Design notes
------------
* ``Tensor`` holds a ``numpy.ndarray`` (float32 by default) plus an optional
  gradient and a backward closure. The graph is built eagerly by the ops in
  :mod:`repro.nn.functional`; ``backward()`` runs a topological sort and
  accumulates gradients.
* Under the **meta** backend (see :mod:`repro.nn.backend`) ``data`` is a
  shape-only :class:`~repro.nn.backend.MetaArray` instead: ops propagate
  shapes analytically and emit the same trace events without numeric work.
* Gradient tracking obeys a global switch (:func:`no_grad`) so inference
  runs build no graph, matching how MMBench profiles inference.
* Operator dunders (``+``, ``@`` ...) are attached by
  :mod:`repro.nn.functional` at import time to avoid a circular import.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.nn.backend import MetaArray

DEFAULT_DTYPE = np.float32

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (inference mode)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


_FLOAT = np.dtype(DEFAULT_DTYPE)


def _as_array(value) -> np.ndarray:
    """``value`` as an array: floating arrays become float32, other arrays
    pass through, anything else converts to a float32 array."""
    if isinstance(value, (np.ndarray, MetaArray)):
        dtype = value.dtype
        if dtype is not _FLOAT and dtype != _FLOAT and np.issubdtype(dtype, np.floating):
            return value.astype(DEFAULT_DTYPE)
        return value
    return np.asarray(value, dtype=DEFAULT_DTYPE)


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward = None  # callable(grad_out) -> None, set by ops
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # -- basic introspection --------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    @property
    def is_meta(self) -> bool:
        """True when this tensor is a shape-only meta-backend tensor."""
        return isinstance(self.data, MetaArray)

    def __len__(self) -> int:
        return self.data.shape[0]

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{grad_flag}{label})"

    def numpy(self) -> np.ndarray:
        """The underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """A view of the same data cut off from the autodiff graph."""
        return Tensor(self.data, requires_grad=False, name=self.name)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad, name=self.name)

    # -- autodiff ---------------------------------------------------------------

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, grad) -> None:
        """Add ``grad`` into this tensor's gradient buffer.

        Handles broadcast reduction: if the incoming gradient has extra
        leading axes, or broadcast axes of size 1, they are summed out so the
        gradient always matches ``self.shape``.

        Under the meta backend gradients are shape-only
        :class:`~repro.nn.backend.MetaArray` values: the buffer pins the
        tensor's own shape and accumulation is a no-op (there are no
        numbers to add, only the fact that a gradient exists).
        """
        if isinstance(grad, MetaArray):
            if self.grad is None:
                self.grad = MetaArray(self.data.shape, DEFAULT_DTYPE)
            return
        grad = _unbroadcast(np.asarray(grad), self.data.shape)
        if self.grad is None:
            self.grad = grad.astype(DEFAULT_DTYPE, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        self.accumulate_grad(grad)

        # Iterative post-order DFS; tensors hash by identity.
        order: list[Tensor] = []
        visited: set[Tensor] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        pop, push = stack.pop, stack.append
        while stack:
            node, processed = pop()
            if processed:
                order.append(node)
                continue
            if node in visited:
                continue
            visited.add(node)
            push((node, True))
            for parent in node._parents:
                if parent not in visited:
                    push((parent, False))

        # Backward closures emit their own kernel events (tagged with the
        # snapshotted forward stage/modality); the pass scope covers any
        # event that reaches the tracer without an explicit pass override.
        from repro.trace.events import PASS_BACKWARD
        from repro.trace.tracer import pass_scope

        with pass_scope(PASS_BACKWARD):
            for node in reversed(order):
                if node._backward is not None and node.grad is not None:
                    node._backward(node.grad)

    # Arithmetic dunders are attached by repro.nn.functional at import time.


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so its shape matches ``shape`` after broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum out extra leading dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def as_tensor(value, requires_grad: bool = False) -> Tensor:
    """Coerce arrays / scalars / tensors into a :class:`Tensor`."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)
