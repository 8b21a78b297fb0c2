"""Tensor mechanics: construction, autograd bookkeeping, broadcasting."""

import numpy as np
import pytest

from repro.nn.tensor import Tensor, as_tensor, is_grad_enabled, no_grad


class TestConstruction:
    def test_wraps_float32(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.dtype == np.float32
        assert t.shape == (3,)

    def test_converts_float64(self):
        t = Tensor(np.zeros(4, dtype=np.float64))
        assert t.dtype == np.float32

    def test_preserves_int_arrays(self):
        t = Tensor(np.array([1, 2], dtype=np.int64))
        assert t.dtype == np.int64

    def test_shape_size_nbytes(self):
        t = Tensor(np.zeros((2, 3)))
        assert t.size == 6
        assert t.ndim == 2
        assert t.nbytes == 24
        assert len(t) == 2

    def test_repr_mentions_grad(self):
        t = Tensor(np.zeros(2), requires_grad=True)
        assert "requires_grad" in repr(t)

    def test_item_on_scalar(self):
        assert Tensor(np.array([3.5])).item() == pytest.approx(3.5)

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t

    def test_as_tensor_from_scalar(self):
        assert as_tensor(2.0).data == np.float32(2.0)


class TestAutogradBookkeeping:
    def test_backward_requires_grad(self):
        t = Tensor([1.0])
        with pytest.raises(RuntimeError, match="does not require grad"):
            t.backward()

    def test_backward_nonscalar_needs_grad_arg(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError, match="non-scalar"):
            t.backward()

    def test_simple_chain(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x + x
        y.backward(np.ones(1))
        assert x.grad == pytest.approx([5.0])

    def test_grad_accumulates_across_backwards(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).backward(np.ones(1))
        (x * 3.0).backward(np.ones(1))
        assert x.grad == pytest.approx([5.0])

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).backward(np.ones(1))
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph(self):
        # x feeds two paths that rejoin; gradient must be summed once each.
        x = Tensor([3.0], requires_grad=True)
        a = x * 2.0
        b = x * 4.0
        (a + b).backward(np.ones(1))
        assert x.grad == pytest.approx([6.0])

    def test_detach_cuts_graph(self):
        x = Tensor([1.0], requires_grad=True)
        d = (x * 2.0).detach()
        assert not d.requires_grad
        assert d._parents == ()

    def test_no_grad_builds_no_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad
        assert y._parents == ()

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_restores_on_exception(self):
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("boom")
        assert is_grad_enabled()


class TestBroadcastGradients:
    def test_bias_broadcast_reduces(self):
        x = Tensor(np.ones((4, 3)), requires_grad=False)
        b = Tensor(np.zeros(3), requires_grad=True)
        (x + b).sum().backward()
        assert b.grad.shape == (3,)
        assert b.grad == pytest.approx(np.full(3, 4.0))

    def test_scalar_broadcast(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        (x * 3.0).sum().backward()
        assert x.grad == pytest.approx(np.full((2, 2), 3.0))

    def test_keepdim_axis_broadcast(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 1)), requires_grad=True)
        (a * b).sum().backward()
        assert b.grad.shape == (2, 1)
        assert b.grad == pytest.approx(np.full((2, 1), 3.0))


class TestOperatorSugar:
    def test_radd_rsub_rmul_rtruediv(self):
        x = Tensor([2.0], requires_grad=True)
        assert (1.0 + x).data == pytest.approx([3.0])
        assert (5.0 - x).data == pytest.approx([3.0])
        assert (3.0 * x).data == pytest.approx([6.0])
        assert (8.0 / x).data == pytest.approx([4.0])

    def test_neg_pow_matmul(self):
        x = Tensor([[1.0, 2.0]])
        w = Tensor([[1.0], [1.0]])
        np.testing.assert_allclose((-x).data, [[-1.0, -2.0]])
        np.testing.assert_allclose((x ** 2.0).data, [[1.0, 4.0]])
        np.testing.assert_allclose((x @ w).data, [[3.0]])

    def test_getitem(self):
        x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
        row = x[(1, slice(None))]
        assert row.data == pytest.approx([3.0, 4.0, 5.0])
        row.sum().backward()
        assert x.grad[1] == pytest.approx(np.ones(3))
        assert x.grad[0] == pytest.approx(np.zeros(3))

    def test_reshape_method(self):
        x = Tensor(np.zeros((2, 3)))
        assert x.reshape((3, 2)).shape == (3, 2)
        assert x.reshape((-1,)).shape == (6,)
