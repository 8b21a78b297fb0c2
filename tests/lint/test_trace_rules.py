"""Golden diagnostics for the MMB1xx/MMB2xx trace and graph rules.

One hand-built bad artifact per rule code, with the diagnostic's code,
severity and location pinned — the rule codes are a public, stable
contract (suppression files reference them), so a drift here is an API
break, not a cosmetic change.
"""

from __future__ import annotations

import pytest

from repro.lint import lint_graph, lint_trace
from repro.trace.events import (
    STAGE_ENCODER,
    STAGE_FUSION,
    KernelCategory,
    KernelEvent,
)
from repro.trace.tracer import Trace


def kernel(name="k", flops=10.0, bytes_read=8.0, bytes_written=8.0,
           threads=32, stage=STAGE_ENCODER, pass_="forward", seq=0,
           category=KernelCategory.GEMM, **kw) -> KernelEvent:
    return KernelEvent(name=name, category=category, flops=flops,
                       bytes_read=bytes_read, bytes_written=bytes_written,
                       threads=threads, stage=stage, pass_=pass_, seq=seq,
                       **kw)


def lint_kernels(*kernels):
    return lint_trace(Trace(kernels=list(kernels)))


def only(report, code):
    """The single diagnostic of ``report``, asserted to carry ``code``."""
    matching = [d for d in report.diagnostics if d.code == code]
    assert len(matching) == 1, \
        f"expected exactly one {code}, got {report.codes()}"
    return matching[0]


# -- MMB101: negative work descriptors --------------------------------------------


def test_mmb101_negative_flops():
    report = lint_kernels(kernel(name="bad_gemm", flops=-5.0, seq=1))
    diag = only(report, "MMB101")
    assert diag.severity == "error"
    assert diag.location == "kernel[0] 'bad_gemm'"
    assert "negative flops" in diag.message
    assert not report.ok


def test_mmb101_negative_bytes_and_threads_counted_separately():
    report = lint_kernels(
        kernel(name="a", bytes_read=-1.0, seq=0),
        kernel(name="b", threads=-4, seq=1),
    )
    codes = [d.code for d in report.diagnostics]
    assert codes.count("MMB101") == 2


def test_mmb101_negative_host_bytes():
    from repro.trace.events import HostEvent, HostOpKind

    trace = Trace(kernels=[kernel()],
                  host_events=[HostEvent(kind=HostOpKind.H2D, bytes=-64.0,
                                         name="h2d_in", seq=1)])
    diag = only(lint_trace(trace), "MMB101")
    assert diag.location == "host[0] 'h2d_in'"


# -- MMB102: non-finite descriptors ------------------------------------------------


def test_mmb102_nan_flops():
    report = lint_kernels(kernel(name="nan_k", flops=float("nan")))
    diag = only(report, "MMB102")
    assert diag.severity == "error"
    assert diag.location == "kernel[0] 'nan_k'"
    assert "non-finite flops" in diag.message


def test_mmb102_inf_bytes():
    report = lint_kernels(kernel(bytes_written=float("inf")))
    assert "MMB102" in report.codes()


# -- MMB103: dead kernels -----------------------------------------------------------


def test_mmb103_dead_kernel():
    report = lint_kernels(
        kernel(name="noop", flops=0.0, bytes_read=0.0, bytes_written=0.0),
        kernel(name="real", seq=1),
    )
    diag = only(report, "MMB103")
    assert diag.severity == "warning"
    assert diag.location == "kernel[0] 'noop'"
    assert "1 dead kernel" in diag.message
    assert report.ok  # warnings alone keep the report ok


# -- MMB104: locality descriptors out of range --------------------------------------


def test_mmb104_coalesced_out_of_range():
    report = lint_kernels(kernel(name="c", coalesced_fraction=1.5))
    diag = only(report, "MMB104")
    assert diag.severity == "warning"
    assert "coalesced_fraction" in diag.message


def test_mmb104_reuse_below_one():
    report = lint_kernels(kernel(name="r", reuse_factor=0.25))
    diag = only(report, "MMB104")
    assert "reuse_factor" in diag.message


# -- MMB201: pass ordering -----------------------------------------------------------


def test_mmb201_optimizer_before_backward():
    report = lint_kernels(
        kernel(name="fwd", pass_="forward", seq=0),
        kernel(name="adam_step", pass_="optimizer", seq=1,
               stage="optimizer"),
        kernel(name="grad", pass_="backward", seq=2),
    )
    diag = only(report, "MMB201")
    assert diag.severity == "error"
    assert diag.location == "kernel[1] 'adam_step'"
    assert "optimizer" in diag.message and "backward" in diag.message


def test_mmb201_clean_ordering_passes():
    report = lint_kernels(
        kernel(name="fwd", pass_="forward", seq=0),
        kernel(name="loss", pass_="loss", seq=1),
        kernel(name="grad", pass_="backward", seq=2),
        kernel(name="step", pass_="optimizer", seq=3, stage="optimizer"),
    )
    assert "MMB201" not in report.codes()


# -- MMB202: unknown-op bucket --------------------------------------------------------


def _unknown_kernel(name, seq):
    return kernel(name=name, seq=seq, stage="unknown",
                  category=KernelCategory.OTHER)


def test_mmb202_unknown_bucket_above_threshold():
    report = lint_kernels(
        kernel(name="gemm", seq=0),
        _unknown_kernel("vendor_blob", 1),
        _unknown_kernel("mystery", 2),
    )
    diag = only(report, "MMB202")
    assert diag.severity == "warning"
    assert diag.location == "kernel[1] 'vendor_blob'"
    assert "67%" in diag.message


def test_mmb202_threshold_is_tunable():
    trace = Trace(kernels=[kernel(name="gemm", seq=0),
                           _unknown_kernel("vendor_blob", 1)])
    assert "MMB202" in lint_trace(trace).codes()  # 50% > 25% default
    # ... with a 60% threshold the same trace is clean
    relaxed = lint_trace(trace, unknown_threshold=0.6)
    assert "MMB202" not in relaxed.codes()


# -- MMB203: fusion legality -----------------------------------------------------------


def test_mmb203_fusion_before_encoder():
    report = lint_kernels(
        kernel(name="early_concat", stage=STAGE_FUSION, seq=0),
        kernel(name="enc", stage=STAGE_ENCODER, seq=1),
    )
    diag = only(report, "MMB203")
    assert diag.severity == "error"
    assert diag.location == "kernel[0] 'early_concat'"


def test_mmb203_backward_reversal_is_legal():
    # The backward pass visits fusion before the encoders — that's the
    # chain rule, not a bug.
    report = lint_kernels(
        kernel(name="enc", stage=STAGE_ENCODER, pass_="forward", seq=0),
        kernel(name="fuse", stage=STAGE_FUSION, pass_="forward", seq=1),
        kernel(name="fuse_bwd", stage=STAGE_FUSION, pass_="backward", seq=2),
        kernel(name="enc_bwd", stage=STAGE_ENCODER, pass_="backward", seq=3),
    )
    assert "MMB203" not in report.codes()


# -- MMB204: empty trace -----------------------------------------------------------------


def test_mmb204_empty_trace_is_info():
    report = lint_trace(Trace(kernels=[]))
    diag = only(report, "MMB204")
    assert diag.severity == "info"
    assert report.ok
    assert report.exit_code(strict=True) == 0  # infos never fail


# -- graph rules: MMB110 / MMB111 / MMB112 -------------------------------------------------


GRAPH = {
    "schema": "mmbench-eg/1",
    "name": "bad",
    "batch_size": 1,
}


def test_mmb111_missing_parent():
    payload = dict(GRAPH, nodes=[
        {"id": 1, "name": "matmul", "parents": []},
        {"id": 2, "name": "relu", "parents": [99]},
    ])
    diag = only(lint_graph(payload), "MMB111")
    assert diag.severity == "error"
    assert diag.location == "node 2 ('relu')"
    assert "parent 99" in diag.message


def test_mmb111_cycle():
    payload = dict(GRAPH, nodes=[
        {"id": 1, "name": "a", "parents": [2]},
        {"id": 2, "name": "b", "parents": [1]},
    ])
    diag = only(lint_graph(payload), "MMB111")
    assert "cycle" in diag.message


def test_mmb112_negative_node_descriptor():
    payload = dict(GRAPH, nodes=[
        {"id": 1, "name": "matmul", "parents": [], "flops": -100.0},
    ])
    diag = only(lint_graph(payload), "MMB112")
    assert diag.severity == "error"
    assert diag.location == "node 1 ('matmul')"
    assert "flops=-100.0" in diag.message


def test_mmb112_negative_model_metadata():
    payload = dict(GRAPH, nodes=[{"id": 1, "name": "matmul", "parents": []}],
                   model={"parameter_bytes": -4e9})
    diag = only(lint_graph(payload), "MMB112")
    assert diag.location == "model.parameter_bytes"


def test_mmb110_bytes_below_declared_footprint():
    payload = dict(GRAPH, nodes=[
        {"id": 1, "name": "matmul", "parents": [],
         "output_shapes": [[8, 8]], "output_dtypes": ["float32"],
         "bytes_written": 4.0},  # declared outputs need 256 bytes
    ])
    diag = only(lint_graph(payload), "MMB110")
    assert diag.severity == "warning"
    assert diag.location == "node 1 ('matmul')"
    assert "256" in diag.message


@pytest.mark.parametrize("dtype,footprint", [
    ("float32", 4000), ("fp32", 4000), ("FLOAT32", 4000), ("half", 2000), ("float", 4000),
])
def test_mmb110_reads_every_dtype_spelling_ingest_accepts(dtype, footprint):
    """MMB110 sizes a dtype by ingest's own table, case-insensitively, so it
    sees the footprint ingest would price."""
    payload = dict(GRAPH, nodes=[
        {"id": 1, "name": "relu", "parents": [],
         "output_shapes": [[1000]], "output_dtypes": [dtype], "bytes_written": 10},
    ])
    assert f"10 < {footprint} bytes" in only(lint_graph(payload), "MMB110").message
    payload["nodes"][0]["output_dtypes"] = ["complex7"]  # ingest's finding, not ours
    assert "MMB110" not in lint_graph(payload).codes()


def test_clean_graph_has_no_findings():
    payload = dict(GRAPH, nodes=[
        {"id": 1, "name": "matmul", "parents": [],
         "input_shapes": [[4, 8], [8, 4]], "output_shapes": [[4, 4]]},
        {"id": 2, "name": "relu", "parents": [1],
         "input_shapes": [[4, 4]], "output_shapes": [[4, 4]]},
    ])
    report = lint_graph(payload)
    assert report.diagnostics == []


# -- vectorized rules emit one diagnostic, not one per element ------------------------------


def test_mass_violations_fold_into_one_diagnostic():
    kernels = [kernel(name=f"k{i}", flops=-1.0, seq=i) for i in range(500)]
    report = lint_kernels(*kernels)
    flops_diags = [d for d in report.diagnostics
                   if d.code == "MMB101" and "flops" in d.message]
    assert len(flops_diags) == 1
    assert "500 kernel(s)" in flops_diags[0].message


# -- the ingest bugfix: model metadata rejected with a structured error ----------------------


def test_ingest_rejects_negative_model_metadata():
    from repro.trace.ingest import IngestError, ingest_graph

    payload = dict(GRAPH, nodes=[{"id": 1, "name": "matmul", "parents": []}],
                   model={"parameters": -100})
    with pytest.raises(IngestError, match="model.parameters.*-100"):
        ingest_graph(payload)


def test_ingest_rejects_non_numeric_model_metadata():
    from repro.trace.ingest import IngestError, ingest_graph

    payload = dict(GRAPH, nodes=[{"id": 1, "name": "matmul", "parents": []}],
                   model={"parameter_bytes": "oops"})
    with pytest.raises(IngestError, match="model.parameter_bytes"):
        ingest_graph(payload)


def test_ingest_accepts_valid_model_metadata():
    from repro.trace.ingest import ingest_graph

    payload = dict(GRAPH, nodes=[{"id": 1, "name": "matmul", "parents": []}],
                   model={"parameters": 10, "parameter_bytes": 40,
                          "input_bytes": 16})
    ingested = ingest_graph(payload)
    assert ingested.parameters == 10
    assert ingested.parameter_bytes == 40
