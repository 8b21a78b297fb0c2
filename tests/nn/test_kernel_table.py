"""The kernel table covers every kernel the library emits, and nothing else.

Every name the nine workloads' meta captures emit (inference, Adam and SGD
training at b2) is a :data:`repro.nn.ops.KERNELS` key, and every key is
emitted there or by the one traced program below, which runs the ops and
optimizer paths no workload reaches.
"""

import numpy as np

from repro.nn import functional as F
from repro.nn.backend import meta_array
from repro.nn.module import Parameter
from repro.nn.ops import KERNELS
from repro.nn.optim import AdamW, clip_grad_norm
from repro.trace.tracer import Tracer

from tests.trace.captures import meta_captures


def _param(*shape) -> Parameter:
    return Parameter(meta_array(shape, np.float32))


def _unreached_kernels() -> set[str]:
    """Names one meta training step over the ops no workload reaches emits."""
    image, a, b = _param(2, 3, 4, 4), _param(2, 3), _param(2, 5)
    tracer = Tracer()
    with tracer.activate():
        x = F.sqrt(F.pow_(F.leaky_relu(F.pad2d(image, 1)), 2.0))
        x = F.dropout(x, 0.5, True, np.random.default_rng(0))
        pooled = F.max_(x.reshape(2, -1), axis=1)
        fused = F.outer_product(a, b).sum() + pooled.sum()
        fused.backward()
        clip_grad_norm([image, a, b], 1.0)
        AdamW([image, a, b]).step()
    return set(tracer.finish().columns().name_table)


def test_table_covers_exactly_the_emitted_kernels():
    captured = set().union(*(set(c.name_table) for c in meta_captures().values()))
    assert captured <= set(KERNELS)
    unreached = _unreached_kernels()
    assert unreached <= set(KERNELS)
    assert set(KERNELS) - captured <= unreached, sorted(set(KERNELS) - captured - unreached)



def test_gemm_counts_every_output_element_of_a_batched_vector_product():
    # (B, M, K) @ (K,) is B * M dot products of length K: a GEMM kernel
    # counts 2 x output elements x k, whatever the operands' ranks.
    a, v = _param(2, 4, 5), _param(5)
    tracer = Tracer()
    with tracer.activate():
        F.matmul(a, v)
    (gemm,) = tracer.finish().kernels
    assert gemm.flops == 2.0 * 2 * 4 * 5
