"""Tracer: activation, context nesting, event capture."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import nn
from repro.nn import functional as F
from repro.nn import ops
from repro.nn.tensor import Tensor
from repro.trace.columns import HOST_COLUMN_SPEC, KERNEL_COLUMN_SPEC, TABLE_NAMES, TraceColumns
from repro.trace.events import PASSES, HostOpKind, KernelCategory
from repro.trace.tracer import (
    DEFAULT_CONTEXT,
    Tracer,
    active_tracer,
    emit_host,
    emit_kernel,
    modality_scope,
    stage_scope,
)


class TestActivation:
    def test_inactive_by_default(self):
        assert active_tracer() is None

    def test_activate_and_finish(self):
        tracer = Tracer()
        with tracer.activate():
            assert active_tracer() is tracer
            emit_kernel("k", KernelCategory.ELEWISE, 1, 1, 1, 1)
        assert active_tracer() is None
        trace = tracer.finish()
        assert len(trace.kernels) == 1

    def test_double_activation_raises(self):
        t1, t2 = Tracer(), Tracer()
        with t1.activate():
            with pytest.raises(RuntimeError, match="already active"):
                with t2.activate():
                    pass

    def test_emit_noop_when_inactive(self):
        # Must not raise and must not record anywhere.
        emit_kernel("k", KernelCategory.GEMM, 1, 1, 1, 1)
        emit_host(HostOpKind.SYNC)

    def test_finish_resets(self):
        tracer = Tracer()
        with tracer.activate():
            emit_kernel("k", KernelCategory.GEMM, 1, 1, 1, 1)
        tracer.finish()
        assert len(tracer.finish().kernels) == 0


class TestContexts:
    def test_stage_and_modality_recorded(self):
        tracer = Tracer()
        with tracer.activate():
            with tracer.stage("fusion"), tracer.modality("image"):
                emit_kernel("k", KernelCategory.GEMM, 1, 1, 1, 1)
        trace = tracer.finish()
        assert trace.kernels[0].stage == "fusion"
        assert trace.kernels[0].modality == "image"

    def test_default_stage_is_encoder(self):
        tracer = Tracer()
        with tracer.activate():
            emit_kernel("k", KernelCategory.GEMM, 1, 1, 1, 1)
        assert tracer.finish().kernels[0].stage == "encoder"

    def test_nesting_innermost_wins(self):
        tracer = Tracer()
        with tracer.activate():
            with tracer.stage("encoder"):
                with tracer.stage("head"):
                    emit_kernel("k", KernelCategory.GEMM, 1, 1, 1, 1)
                emit_kernel("k2", KernelCategory.GEMM, 1, 1, 1, 1)
        trace = tracer.finish()
        assert trace.kernels[0].stage == "head"
        assert trace.kernels[1].stage == "encoder"

    def test_module_level_scopes_noop_without_tracer(self):
        with stage_scope("fusion"), modality_scope("image"):
            pass  # must not raise

    def test_sequence_numbers_increase(self):
        tracer = Tracer()
        with tracer.activate():
            emit_kernel("a", KernelCategory.GEMM, 1, 1, 1, 1)
            emit_host(HostOpKind.SYNC)
            emit_kernel("b", KernelCategory.GEMM, 1, 1, 1, 1)
        trace = tracer.finish()
        assert trace.kernels[0].seq < trace.host_events[0].seq < trace.kernels[1].seq


class TestFrameworkIntegration:
    def test_ops_emit_kernels(self, rng):
        model = nn.Sequential(nn.Linear(4, 8, rng=rng), nn.ReLU())
        tracer = Tracer()
        with tracer.activate(), nn.no_grad():
            model(Tensor(rng.standard_normal((2, 4)).astype(np.float32)))
        trace = tracer.finish()
        cats = {k.category for k in trace.kernels}
        assert KernelCategory.GEMM in cats
        assert KernelCategory.RELU in cats

    def test_trace_totals(self):
        tracer = Tracer()
        with tracer.activate():
            emit_kernel("a", KernelCategory.GEMM, flops=10, bytes_read=4, bytes_written=2, threads=1)
            emit_kernel("b", KernelCategory.RELU, flops=5, bytes_read=1, bytes_written=1, threads=1)
        trace = tracer.finish()
        assert trace.total_flops == 15
        assert trace.total_bytes == 8

    def test_stage_and_modality_queries(self):
        tracer = Tracer()
        with tracer.activate():
            with tracer.stage("encoder"), tracer.modality("image"):
                emit_kernel("a", KernelCategory.CONV, 1, 1, 1, 1)
            with tracer.stage("head"):
                emit_kernel("b", KernelCategory.GEMM, 1, 1, 1, 1)
        trace = tracer.finish()
        assert trace.stages() == ["encoder", "head"]
        assert trace.modalities() == ["image"]
        assert len(trace.kernels_in_stage("encoder")) == 1
        assert len(trace.kernels_for_modality("image")) == 1


class TestRowCapture:
    """A capture records rows and builds its columns once, at ``finish()``."""

    def test_finish_builds_columns_and_no_events(self):
        tracer = Tracer()
        with tracer.activate():
            emit_kernel("a", KernelCategory.GEMM, 1, 1, 1, 1)
            emit_host(HostOpKind.SYNC)
        trace = tracer.finish()
        assert trace._columns is not None
        assert trace._kernels is None and trace._host_events is None
        assert trace.columns().n == 1 and trace.columns().host_n == 1

    def test_host_first_labels_intern_after_kernel_labels(self):
        # "preprocess" and "video" are first seen on host events, ahead of
        # every kernel; the shared tables still list kernel labels first.
        tracer = Tracer()
        with tracer.activate():
            with tracer.stage("preprocess"), tracer.modality("video"):
                emit_host(HostOpKind.H2D, bytes=64, name="copy", note="x")
            with tracer.stage("fusion"):
                emit_kernel("gemm", KernelCategory.GEMM, 10, 4, 4, 8, m=2)
                emit_kernel("relu", KernelCategory.RELU, 1, 1, 1, 1, modality="text")
            emit_host(HostOpKind.SYNC, name="sync")
            with tracer.modality("audio"):
                emit_kernel("gemm", KernelCategory.GEMM, 10, 4, 4, 8, pass_="backward")
        trace = tracer.finish()
        cols = trace.columns()
        assert cols.stage_table == ("fusion", "encoder", "preprocess")
        assert cols.modality_table == ("text", "audio", "video")

        ref = TraceColumns.from_events(trace.kernels, trace.host_events)
        for name, _ in KERNEL_COLUMN_SPEC + HOST_COLUMN_SPEC:
            got, want = getattr(cols, name), getattr(ref, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        for name in TABLE_NAMES:
            assert getattr(cols, name) == getattr(ref, name), name
        assert cols.meta == ref.meta == {0: {"m": 2}}
        assert cols.host_meta == ref.host_meta == {0: {"note": "x"}}


# -- the context tuple ------------------------------------------------------------

#: Scope kind -> (the Tracer method that opens it, labels to draw from).
SCOPES = {
    "stage": ("stage", ("preprocess", "fusion", "head")),
    "modality": ("modality", ("image", "text", "audio")),
    "pass": ("pass_", PASSES),
}
FIELDS = tuple(SCOPES)


@st.composite
def scope_steps(draw, body):
    kind = draw(st.sampled_from(FIELDS))
    label = draw(st.sampled_from(SCOPES[kind][1]))
    # raises: the body ends in an exception; caught: this scope's caller
    # catches it (if not, it unwinds the enclosing scopes too).
    return (kind, label, draw(body), draw(st.booleans()), draw(st.booleans()))


#: A program is a list of steps: emit a kernel, emit a host event, or
#: open a scope around a nested program.
programs = st.recursive(
    st.lists(st.sampled_from(["kernel", "host"]), max_size=3),
    lambda body: st.lists(st.one_of(st.sampled_from(["kernel", "host"]),
                                    scope_steps(body)), max_size=4),
    max_leaves=30,
)


class _Unwind(Exception):
    pass


def _run(tracer, program, stacks, expected):
    """Run ``program`` and record, per emitted event, the innermost label
    of each stack (the default where a stack is empty)."""
    for step in program:
        if step in ("kernel", "host"):
            if step == "kernel":
                emit_kernel("k", KernelCategory.GEMM, 1, 1, 1, 1)
            else:
                emit_host(HostOpKind.SYNC)
            expected.append((step, tuple(
                stack[-1] if stack else default
                for stack, default in zip(stacks, DEFAULT_CONTEXT))))
            continue
        kind, label, body, raises, caught = step
        stack = stacks[FIELDS.index(kind)]
        stack.append(label)
        try:
            with getattr(tracer, SCOPES[kind][0])(label):
                _run(tracer, body, stacks, expected)
                if raises:
                    raise _Unwind
        except _Unwind:
            if not caught:
                raise
        finally:
            stack.pop()


class TestContextTuple:
    @settings(max_examples=150, deadline=None)
    @given(programs)
    def test_rows_carry_the_innermost_labels(self, program):
        tracer = Tracer()
        expected = []
        with tracer.activate():
            try:
                _run(tracer, program, ([], [], []), expected)
            except _Unwind:
                pass
        assert tracer.context == DEFAULT_CONTEXT
        trace = tracer.finish()
        got = sorted([(k.seq, "kernel", (k.stage, k.modality, k.pass_))
                      for k in trace.kernels]
                     + [(h.seq, "host", (h.stage, h.modality, h.pass_))
                        for h in trace.host_events])
        assert [(kind, labels) for _, kind, labels in got] == expected

    def test_exception_exit_restores_the_outer_context(self):
        tracer = Tracer()
        with tracer.stage("fusion"):
            with pytest.raises(RuntimeError):
                with tracer.modality("image"), tracer.pass_("loss"):
                    assert tracer.context == ("fusion", "image", "loss")
                    raise RuntimeError
            assert tracer.context == ("fusion", None, "forward")
        assert tracer.context == DEFAULT_CONTEXT


class TestOpEmission:
    def test_emit_is_a_noop_without_a_tracer(self, monkeypatch):
        calls = []
        monkeypatch.setattr(ops, "emit_kernel", lambda *a, **k: calls.append(a))
        idle = Tracer()  # never activated
        assert active_tracer() is None
        a, b, out = np.zeros((2, 3)), np.zeros((3, 4)), np.zeros((2, 4))
        F._emit("gemm", (a, b), (out,))
        F._emit("gemm_bwd_da", (out, b), (a,), ctx=None)
        F._emit("conv2d_bwd_w", (out, a), (b,), 1, ctx=("fusion", "image", "forward"))
        F._emit("adam_update", (a, a, a, a), (a, a, a), 0.0, ctx=("optimizer", None))
        assert calls == []
        assert idle._kernel_rows == [] and idle._host_rows == []
