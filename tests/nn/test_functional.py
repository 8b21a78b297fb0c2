"""Numeric gradient checks and forward correctness for every op."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.backend import meta_array
from repro.nn.tensor import Tensor
from repro.trace.tracer import Tracer

from tests.conftest import numeric_gradient


def check_gradients(build_output, params: list[Tensor], tol: float = 2e-2):
    """Compare autograd gradients against central differences."""
    out = build_output()
    out.backward(np.ones_like(out.data))
    for p in params:
        analytic = p.grad.copy()

        def scalar():
            return float(build_output().data.sum())

        numeric = numeric_gradient(scalar, p.data)
        np.testing.assert_allclose(analytic, numeric, rtol=tol, atol=tol)


@pytest.fixture
def x2(rng):
    return Tensor(rng.standard_normal((3, 4)).astype(np.float32), requires_grad=True)


@pytest.fixture
def y2(rng):
    return Tensor(rng.standard_normal((3, 4)).astype(np.float32), requires_grad=True)


class TestElementwiseGrads:
    def test_add(self, x2, y2):
        check_gradients(lambda: F.add(x2, y2), [x2, y2])

    def test_sub(self, x2, y2):
        check_gradients(lambda: F.sub(x2, y2), [x2, y2])

    def test_mul(self, x2, y2):
        check_gradients(lambda: F.mul(x2, y2), [x2, y2])

    def test_div(self, x2, y2, rng):
        denom = Tensor(rng.uniform(1.0, 2.0, (3, 4)).astype(np.float32), requires_grad=True)
        check_gradients(lambda: F.div(x2, denom), [x2, denom])

    def test_exp(self, x2):
        check_gradients(lambda: F.exp(x2), [x2])

    def test_log(self, rng):
        pos = Tensor(rng.uniform(0.5, 2.0, (3, 4)).astype(np.float32), requires_grad=True)
        check_gradients(lambda: F.log(pos), [pos])

    def test_sqrt(self, rng):
        pos = Tensor(rng.uniform(0.5, 2.0, (3, 4)).astype(np.float32), requires_grad=True)
        check_gradients(lambda: F.sqrt(pos), [pos])

    def test_pow(self, rng):
        pos = Tensor(rng.uniform(0.5, 2.0, (3, 4)).astype(np.float32), requires_grad=True)
        check_gradients(lambda: F.pow_(pos, 3.0), [pos])


class TestActivationGrads:
    def test_relu_grad_masks_negatives(self):
        x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        F.relu(x).sum().backward()
        assert x.grad == pytest.approx([0.0, 1.0])

    def test_leaky_relu(self, x2):
        check_gradients(lambda: F.leaky_relu(x2, 0.1), [x2])

    def test_sigmoid(self, x2):
        check_gradients(lambda: F.sigmoid(x2), [x2])

    def test_tanh(self, x2):
        check_gradients(lambda: F.tanh(x2), [x2])

    def test_gelu(self, x2):
        check_gradients(lambda: F.gelu(x2), [x2])

    def test_sigmoid_range(self, rng):
        x = Tensor(rng.standard_normal(100).astype(np.float32) * 5)
        s = F.sigmoid(x).data
        assert (s > 0).all() and (s < 1).all()


class TestReductionGrads:
    def test_sum_all(self, x2):
        check_gradients(lambda: F.sum_(x2), [x2])

    def test_sum_axis(self, x2):
        check_gradients(lambda: F.sum_(x2, axis=1), [x2])

    def test_sum_keepdims(self, x2):
        check_gradients(lambda: F.sum_(x2, axis=0, keepdims=True), [x2])

    def test_mean(self, x2):
        check_gradients(lambda: F.mean(x2, axis=1), [x2])

    def test_mean_tuple_axis(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4, 5)).astype(np.float32), requires_grad=True)
        check_gradients(lambda: F.mean(x, axis=(2, 3)), [x])

    def test_max(self, x2):
        check_gradients(lambda: F.max_(x2, axis=1), [x2])

    def test_softmax_rows_sum_to_one(self, x2):
        s = F.softmax(x2, axis=-1).data
        np.testing.assert_allclose(s.sum(axis=-1), np.ones(3), rtol=1e-5)

    def test_softmax_grad(self, x2):
        check_gradients(lambda: F.softmax(x2, axis=-1), [x2])

    def test_log_softmax_matches_log_of_softmax(self, x2):
        np.testing.assert_allclose(
            F.log_softmax(x2, axis=-1).data,
            np.log(F.softmax(x2, axis=-1).data),
            rtol=1e-4, atol=1e-5,
        )

    def test_log_softmax_grad(self, x2):
        check_gradients(lambda: F.log_softmax(x2, axis=-1), [x2])


class TestLinearAlgebraGrads:
    def test_matmul(self, rng):
        a = Tensor(rng.standard_normal((3, 4)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)).astype(np.float32), requires_grad=True)
        check_gradients(lambda: F.matmul(a, b), [a, b])

    def test_batched_matmul(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 4)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 4, 2)).astype(np.float32), requires_grad=True)
        check_gradients(lambda: F.matmul(a, b), [a, b])

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((4, 5), (5,)), ((5,), (5, 3)), ((5,), (5,)), ((2, 4, 5), (5,)), ((5,), (2, 5, 3)),
    ])
    def test_matmul_of_a_vector_operand(self, rng, a_shape, b_shape):
        """A 1-D left operand is a row and a 1-D right operand a column."""

        def step(a_data, b_data):
            a = Tensor(a_data, requires_grad=True)
            b = Tensor(b_data, requires_grad=True)
            tracer = Tracer()
            with tracer.activate():
                F.matmul(a, b).sum().backward()
            return a.grad, b.grad, tracer.finish().kernels

        x = rng.standard_normal(a_shape).astype(np.float32)
        y = rng.standard_normal(b_shape).astype(np.float32)
        da, db, eager = step(x, y)
        da2, db2, _ = step(x.reshape(1, -1) if x.ndim == 1 else x,
                           y.reshape(-1, 1) if y.ndim == 1 else y)
        np.testing.assert_array_equal(da, da2.reshape(a_shape))
        np.testing.assert_array_equal(db, db2.reshape(b_shape))

        meta_da, meta_db, meta = step(meta_array(a_shape, np.float32),
                                      meta_array(b_shape, np.float32))
        assert meta_da.shape == da.shape == a_shape
        assert meta_db.shape == db.shape == b_shape

        def row(k):
            return (k.name, k.flops, k.bytes_read, k.bytes_written, k.threads)

        assert [row(k) for k in eager] == [row(k) for k in meta]
        bwd = {k.name: k.flops for k in eager if k.name.startswith("gemm_bwd")}
        assert bwd == dict.fromkeys(("gemm_bwd_da", "gemm_bwd_db"),
                                    2.0 * np.matmul(x, y).size * a_shape[-1])

    def test_linear_matches_manual(self, rng):
        x = Tensor(rng.standard_normal((2, 3)).astype(np.float32))
        w = Tensor(rng.standard_normal((4, 3)).astype(np.float32))
        b = Tensor(rng.standard_normal(4).astype(np.float32))
        out = F.linear(x, w, b)
        np.testing.assert_allclose(out.data, x.data @ w.data.T + b.data, rtol=1e-5)

    def test_outer_product_values(self):
        a = Tensor(np.array([[1.0, 2.0]]))
        b = Tensor(np.array([[3.0, 4.0, 5.0]]))
        out = F.outer_product(a, b)
        assert out.shape == (1, 2, 3)
        np.testing.assert_allclose(out.data[0], np.outer([1, 2], [3, 4, 5]))

    def test_outer_product_grad(self, rng):
        a = Tensor(rng.standard_normal((2, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 4)).astype(np.float32), requires_grad=True)
        check_gradients(lambda: F.outer_product(a, b), [a, b])


class TestShapeOps:
    def test_reshape_grad(self, x2):
        check_gradients(lambda: F.reshape(x2, (4, 3)), [x2])

    def test_transpose_grad(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4)).astype(np.float32), requires_grad=True)
        check_gradients(lambda: F.transpose(x, (2, 0, 1)), [x])

    def test_concat_values_and_grad(self, rng):
        a = Tensor(rng.standard_normal((2, 2)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 3)).astype(np.float32), requires_grad=True)
        out = F.concat([a, b], axis=1)
        assert out.shape == (2, 5)
        check_gradients(lambda: F.concat([a, b], axis=1), [a, b])

    def test_stack(self, rng):
        a = Tensor(rng.standard_normal((2, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 3)).astype(np.float32), requires_grad=True)
        out = F.stack([a, b], axis=1)
        assert out.shape == (2, 2, 3)
        check_gradients(lambda: F.stack([a, b], axis=1), [a, b])

    def test_pad2d(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 3, 3)).astype(np.float32), requires_grad=True)
        out = F.pad2d(x, 2)
        assert out.shape == (1, 1, 7, 7)
        check_gradients(lambda: F.pad2d(x, 2), [x])

    def test_pad2d_zero_is_identity(self):
        x = Tensor(np.ones((1, 1, 2, 2)))
        assert F.pad2d(x, 0) is x

    def test_embedding_grad_scatters(self):
        w = Tensor(np.eye(4, dtype=np.float32), requires_grad=True)
        idx = np.array([[0, 2, 2]])
        out = F.embedding(w, idx)
        assert out.shape == (1, 3, 4)
        out.sum().backward()
        # Row 2 was gathered twice: its gradient is 2 * ones(4).
        np.testing.assert_allclose(w.grad[2], np.full(4, 2.0))
        np.testing.assert_allclose(w.grad[0], np.ones(4))
        np.testing.assert_allclose(w.grad[1], np.zeros(4))

    def test_upsample_nearest(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 3, 3)).astype(np.float32), requires_grad=True)
        out = F.upsample_nearest2d(x, 2)
        assert out.shape == (1, 2, 6, 6)
        check_gradients(lambda: F.upsample_nearest2d(x, 2), [x])


class TestConvPool:
    def test_conv2d_matches_direct(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 5, 5)).astype(np.float32))
        w = Tensor(rng.standard_normal((3, 2, 3, 3)).astype(np.float32))
        out = F.conv2d(x, w, None, stride=1, padding=0)
        assert out.shape == (1, 3, 3, 3)
        # Direct convolution at one output location.
        patch = x.data[0, :, 1:4, 1:4]
        expected = (patch * w.data[1]).sum()
        assert out.data[0, 1, 1, 1] == pytest.approx(expected, rel=1e-4)

    def test_conv2d_stride_padding_shapes(self, rng):
        x = Tensor(rng.standard_normal((2, 1, 8, 8)).astype(np.float32))
        w = Tensor(rng.standard_normal((4, 1, 3, 3)).astype(np.float32))
        out = F.conv2d(x, w, None, stride=2, padding=1)
        assert out.shape == (2, 4, 4, 4)

    def test_conv2d_channel_mismatch_raises(self, rng):
        x = Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32))
        w = Tensor(np.zeros((1, 3, 3, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="channel mismatch"):
            F.conv2d(x, w, None)

    def test_conv2d_grads(self, rng):
        x = Tensor(rng.standard_normal((2, 2, 5, 5)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal(3).astype(np.float32), requires_grad=True)
        check_gradients(lambda: F.conv2d(x, w, b, stride=1, padding=1), [x, w, b])

    def test_conv2d_strided_grads(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 6, 6)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 1, 3, 3)).astype(np.float32), requires_grad=True)
        check_gradients(lambda: F.conv2d(x, w, None, stride=2, padding=1), [x, w])

    def test_max_pool_values(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        out = F.max_pool2d(x, 2)
        np.testing.assert_allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_grad_goes_to_max(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4), requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        assert x.grad[0, 0, 1, 1] == 1.0
        assert x.grad[0, 0, 0, 0] == 0.0

    def test_avg_pool_values(self):
        x = Tensor(np.ones((1, 1, 4, 4), dtype=np.float32))
        out = F.avg_pool2d(x, 2)
        np.testing.assert_allclose(out.data, np.ones((1, 1, 2, 2)))

    def test_avg_pool_grad(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 4, 4)).astype(np.float32), requires_grad=True)
        check_gradients(lambda: F.avg_pool2d(x, 2), [x])


class TestNormGrads:
    def test_layer_norm_normalizes(self, rng):
        x = Tensor(rng.standard_normal((4, 8)).astype(np.float32) * 3 + 1)
        g = Tensor(np.ones(8, dtype=np.float32))
        b = Tensor(np.zeros(8, dtype=np.float32))
        out = F.layer_norm(x, g, b).data
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(4), atol=1e-4)
        np.testing.assert_allclose(out.std(axis=-1), np.ones(4), atol=1e-2)

    def test_layer_norm_grads(self, rng):
        x = Tensor(rng.standard_normal((3, 6)).astype(np.float32), requires_grad=True)
        g = Tensor(rng.uniform(0.5, 1.5, 6).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal(6).astype(np.float32), requires_grad=True)
        check_gradients(lambda: F.layer_norm(x, g, b), [x, g, b], tol=3e-2)

    def test_batch_norm_training_normalizes(self, rng):
        x = Tensor(rng.standard_normal((8, 3, 4, 4)).astype(np.float32) * 2 + 5)
        g = Tensor(np.ones(3, dtype=np.float32))
        b = Tensor(np.zeros(3, dtype=np.float32))
        rm = np.zeros(3, dtype=np.float32)
        rv = np.ones(3, dtype=np.float32)
        out = F.batch_norm(x, g, b, rm, rv, training=True).data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), np.zeros(3), atol=1e-4)
        # Running stats moved toward the batch stats.
        assert (rm > 0).all()

    def test_batch_norm_eval_uses_running_stats(self, rng):
        x = Tensor(rng.standard_normal((4, 2, 3, 3)).astype(np.float32))
        g = Tensor(np.ones(2, dtype=np.float32))
        b = Tensor(np.zeros(2, dtype=np.float32))
        rm = np.full(2, 1.0, dtype=np.float32)
        rv = np.full(2, 4.0, dtype=np.float32)
        out = F.batch_norm(x, g, b, rm, rv, training=False).data
        expected = (x.data - 1.0) / np.sqrt(4.0 + 1e-5)
        np.testing.assert_allclose(out, expected, rtol=1e-4)

    def test_batch_norm_grads(self, rng):
        x = Tensor(rng.standard_normal((4, 2, 3, 3)).astype(np.float32), requires_grad=True)
        g = Tensor(rng.uniform(0.5, 1.5, 2).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal(2).astype(np.float32), requires_grad=True)
        rm = np.zeros(2, dtype=np.float32)
        rv = np.ones(2, dtype=np.float32)

        def run():
            # Fresh running stats each probe so the forward is deterministic.
            return F.batch_norm(x, g, b, rm.copy(), rv.copy(), training=True)

        check_gradients(run, [x, g, b], tol=3e-2)


class TestDropoutAndGLU:
    def test_dropout_eval_is_identity(self, rng):
        x = Tensor(rng.standard_normal((5, 5)).astype(np.float32))
        out = F.dropout(x, 0.5, training=False, rng=rng)
        assert out is x

    def test_dropout_preserves_expectation(self):
        rng = np.random.default_rng(7)
        x = Tensor(np.ones((200, 200), dtype=np.float32))
        out = F.dropout(x, 0.3, training=True, rng=rng)
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_glu_values(self):
        a = Tensor(np.array([2.0]))
        b = Tensor(np.array([0.0]))
        assert F.glu(a, b).data == pytest.approx([1.0])  # sigmoid(0) = 0.5
