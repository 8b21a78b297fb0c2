"""Tracer: activation, context nesting, event capture."""

import numpy as np
import pytest

from repro import nn
from repro.nn.tensor import Tensor
from repro.trace.columns import HOST_COLUMN_SPEC, KERNEL_COLUMN_SPEC, TABLE_NAMES, TraceColumns
from repro.trace.events import HostOpKind, KernelCategory
from repro.trace.tracer import (
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
