"""TraceColumns: construction, caching, materialization, disk form, scaling."""

import pytest

from repro.trace.columns import CATEGORY_ORDER, NO_MODALITY
from repro.trace import binfmt
from repro.trace.events import HostEvent, HostOpKind, KernelCategory, KernelEvent
from repro.trace.store import StoredTrace, TraceStore
from repro.trace.tracer import Trace


def k(name, cat, stage, modality=None, flops=10.0, seq=0, **kw):
    return KernelEvent(name=name, category=cat, flops=flops, bytes_read=8.0,
                       bytes_written=4.0, threads=16, stage=stage,
                       modality=modality, seq=seq, **kw)


@pytest.fixture
def trace():
    return Trace(
        kernels=[
            k("conv", KernelCategory.CONV, "encoder", "image", flops=100.0, seq=0),
            k("gemm", KernelCategory.GEMM, "encoder", "audio", flops=50.0, seq=1,
              coalesced_fraction=0.7, reuse_factor=3.0, meta={"m": 2}),
            k("add", KernelCategory.ELEWISE, "fusion", None, flops=10.0, seq=2),
            k("gemm", KernelCategory.GEMM, "head", None, flops=40.0, seq=3),
        ],
        host_events=[
            HostEvent(kind=HostOpKind.H2D, bytes=128.0, stage="encoder", seq=4),
            HostEvent(kind=HostOpKind.SYNC, stage="fusion", name="sync:f",
                      seq=5, meta={"note": "barrier"}),
        ],
    )


class TestConstruction:
    def test_columns_mirror_events(self, trace):
        cols = trace.columns()
        assert cols.n == 4 and cols.host_n == 2
        assert cols.flops.tolist() == [100.0, 50.0, 10.0, 40.0]
        assert cols.stage_table == ("encoder", "fusion", "head")
        assert cols.modality_table == ("image", "audio")
        assert cols.modality_codes.tolist() == [0, 1, NO_MODALITY, NO_MODALITY]
        assert [CATEGORY_ORDER[c] for c in cols.category_codes] == [
            KernelCategory.CONV, KernelCategory.GEMM,
            KernelCategory.ELEWISE, KernelCategory.GEMM,
        ]
        # "gemm" is interned once, referenced twice.
        assert cols.name_table.count("gemm") == 1
        assert cols.name_codes[1] == cols.name_codes[3]
        assert cols.meta == {1: {"m": 2}}

    def test_columns_cached_on_trace(self, trace):
        assert trace.columns() is trace.columns()

    def test_bytes_total_derived(self, trace):
        assert trace.columns().bytes_total.tolist() == [12.0] * 4

    def test_host_columns(self, trace):
        cols = trace.columns()
        assert cols.host_bytes.tolist() == [128.0, 0.0]
        assert cols.host_stage_codes.tolist() == [0, 1]
        assert cols.host_meta == {1: {"note": "barrier"}}


class TestPassColumns:
    @pytest.fixture
    def training_like(self):
        return Trace(kernels=[
            k("conv", KernelCategory.CONV, "encoder", "image", seq=0),
            k("loss", KernelCategory.REDUCE, "head", None, seq=1, pass_="loss"),
            k("conv_bwd", KernelCategory.CONV, "encoder", "image", seq=2,
              pass_="backward"),
            k("adam_update", KernelCategory.ELEWISE, "optimizer", None, seq=3,
              pass_="optimizer"),
        ])

    def test_pass_codes_and_first_seen_order(self, training_like):
        cols = training_like.columns()
        assert cols.pass_codes.tolist() == [0, 1, 2, 3]
        assert training_like.passes() == ["forward", "loss", "backward",
                                          "optimizer"]

    def test_pass_indices(self, training_like):
        cols = training_like.columns()
        assert cols.kernel_indices_for_pass("backward").tolist() == [2]
        assert cols.kernel_indices_for_pass("nonsense").tolist() == []
        assert [x.name for x in training_like.kernels_in_pass("optimizer")] == \
            ["adam_update"]

    def test_pass_survives_materialize_scale_and_disk(self, training_like,
                                                      tmp_path):
        cols = training_like.columns()
        assert [e.pass_ for e in cols.materialize_kernels()] == \
            ["forward", "loss", "backward", "optimizer"]
        assert cols.scaled(2.0).pass_codes.tolist() == cols.pass_codes.tolist()
        stored = StoredTrace(trace=training_like, model_name="training_like",
                             parameters=0, parameter_bytes=0, input_bytes=0)
        binfmt.write_entry(tmp_path / "t.mmt", None, stored)
        _, loaded = binfmt.read_entry(tmp_path / "t.mmt")
        round_trip = loaded.trace.columns()
        assert round_trip.pass_codes.tolist() == cols.pass_codes.tolist()
        assert round_trip.host_pass_codes.tolist() == cols.host_pass_codes.tolist()

    def test_inference_trace_is_pure_forward(self, trace):
        assert trace.passes() == ["forward"]
        assert (trace.columns().pass_codes == 0).all()


class TestIndexing:
    def test_stage_indices(self, trace):
        cols = trace.columns()
        assert cols.kernel_indices_in_stage("encoder").tolist() == [0, 1]
        assert cols.kernel_indices_in_stage("nope").tolist() == []

    def test_modality_indices(self, trace):
        cols = trace.columns()
        assert cols.kernel_indices_for_modality("audio").tolist() == [1]

    def test_first_seen_orders(self, trace):
        cols = trace.columns()
        assert cols.kernel_stages() == ["encoder", "fusion", "head"]
        assert cols.kernel_modalities() == ["image", "audio"]

    def test_trace_routes_through_columns(self, trace):
        assert [ev.name for ev in trace.kernels_in_stage("encoder")] == ["conv", "gemm"]
        assert [ev.name for ev in trace.kernels_for_modality("image")] == ["conv"]
        assert trace.total_flops == 200.0
        assert trace.total_bytes == 48.0


class TestMaterialization:
    def test_round_trip(self, trace):
        cols = trace.columns()
        rebuilt = Trace.from_columns(cols)
        for a, b in zip(trace.kernels, rebuilt.kernels):
            assert (a.name, a.category, a.flops, a.bytes_read, a.bytes_written,
                    a.threads, a.stage, a.modality, a.seq, a.coalesced_fraction,
                    a.reuse_factor, a.meta) == \
                   (b.name, b.category, b.flops, b.bytes_read, b.bytes_written,
                    b.threads, b.stage, b.modality, b.seq, b.coalesced_fraction,
                    b.reuse_factor, b.meta)
        for a, b in zip(trace.host_events, rebuilt.host_events):
            assert (a.kind, a.bytes, a.stage, a.modality, a.seq, a.name, a.meta) == \
                   (b.kind, b.bytes, b.stage, b.modality, b.seq, b.name, b.meta)

    def test_lazy_until_accessed(self, trace):
        lazy = Trace.from_columns(trace.columns())
        assert lazy._kernels is None and lazy._host_events is None
        # Columnar consumers never force materialization.
        assert lazy.total_flops == 200.0
        assert lazy.stages() == ["encoder", "fusion", "head"]
        assert lazy._kernels is None
        # Event access materializes once and caches.
        assert lazy.kernels is lazy.kernels
        assert len(lazy.kernels) == 4

    def test_types_are_python_scalars(self, trace):
        ev = Trace.from_columns(trace.columns()).kernels[1]
        assert type(ev.flops) is float and type(ev.threads) is int
        assert type(ev.seq) is int and isinstance(ev.category, KernelCategory)


class TestDiskForm:
    def test_store_disk_loads_are_columnar(self, tmp_path):
        warm = TraceStore(tmp_path)
        warm.get_or_capture("avmnist", batch_size=2, backend="meta")
        cold = TraceStore(tmp_path)
        loaded = cold.get_or_capture("avmnist", batch_size=2, backend="meta")
        assert cold.stats["disk_hits"] == 1
        # The loaded trace is columnar-backed; no events were materialized.
        assert loaded.trace._kernels is None
        assert loaded.trace.columns().n > 0


class TestScaled:
    def test_scaled_columns(self, trace):
        scaled = trace.columns().scaled(2.0)
        assert scaled.flops.tolist() == [200.0, 100.0, 20.0, 80.0]
        assert scaled.threads.tolist() == [32] * 4
        assert scaled.host_bytes.tolist() == [256.0, 0.0]
        # Tables shared, metadata deep-copied.
        assert scaled.stage_table is trace.columns().stage_table
        scaled.meta[1]["m"] = 99
        assert trace.columns().meta[1]["m"] == 2

    def test_threads_floor_at_one(self, trace):
        assert trace.columns().scaled(1e-9).threads.min() == 1

    def test_invalid_factor(self, trace):
        with pytest.raises(ValueError, match="positive"):
            trace.columns().scaled(0.0)
