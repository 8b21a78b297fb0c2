"""CLI tests for ``mmbench export`` and ``mmbench ingest``."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.core.cli import main
from repro.core.suite import BenchmarkSuite
from repro.profiling.profiler import MMBenchProfiler, price_stored
from repro.profiling.report import format_seconds
from repro.trace.store import default_store

FIXTURES = Path(__file__).parent.parent / "fixtures" / "execution_graphs"

# `ingest cnn_forward.json --report` at the graph's own batch (1).
CNN_FORWARD_REPORT = """\
== MMBench profile: cnn_forward on rtx2080ti (batch=1) ==

[algorithm]
  parameters           758
  parameter_bytes      3032
  flops                1.69e+04
  flops_per_sample     1.69e+04
  num_modalities       1

[system]
  total_time           38.9 us
  gpu_time             8.8 us
  cpu_runtime_time     30.0 us
  launch_time          20.0 us
  transfer_time        10.0 us
  data_prep_time       0.0 us
  sync_time            0.0 us
  cpu_runtime_share    77.3%
  peak_memory          7.0 KB
  memory_model         3.0 KB
  memory_dataset       768.0 B
  memory_intermediate  3.2 KB

[architecture]
  stage times:
    encoder    22.5 us
    head       6.3 us
  kernel categories (time share):
    Gemm       26.4%
    Conv       21.4%
    BNorm      17.6%
    Pooling    17.5%
    Relu       17.1%
"""


@pytest.fixture
def exported(tmp_path):
    path = tmp_path / "avmnist.json"
    assert main(["export", "--workload", "avmnist", "--batch-size", "2",
                 "-o", str(path)]) == 0
    return path


class TestExport:
    def test_export_writes_schema_graph(self, exported):
        graph = json.loads(exported.read_text())
        assert graph["schema"] == "mmbench-eg/1"
        assert graph["batch_size"] == 2
        assert graph["nodes"]
        assert graph["model"]["parameter_bytes"] > 0

    def test_export_training_includes_all_passes(self, tmp_path, capsys):
        path = tmp_path / "train.json"
        assert main(["export", "--workload", "avmnist", "--training",
                     "--batch-size", "2", "-o", str(path)]) == 0
        passes = {n.get("pass") for n in json.loads(path.read_text())["nodes"]}
        assert passes == {"forward", "loss", "backward", "optimizer"}

    def test_export_rejects_bad_workload_and_optimizer(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(["export", "--workload", "nope", "-o", str(tmp_path / "x.json")])
        assert main(["export", "--workload", "avmnist", "--training",
                     "--optimizer", "nope", "-o", str(tmp_path / "x.json")]) == 2
        assert "unknown optimizer" in capsys.readouterr().err


class TestIngest:
    def test_report_surfaces_unknown_fraction(self, capsys):
        assert main(["ingest", str(FIXTURES / "unknown_ops.json")]) == 0
        out = capsys.readouterr().out
        assert "unknown ops: 2/4 kernels (50.0%)" in out
        assert "my_custom_op" in out
        assert "MMBench profile" in out  # default --report output

    def test_roundtrip_report(self, exported, capsys):
        assert main(["ingest", str(exported), "--report"]) == 0
        out = capsys.readouterr().out
        assert "41 nodes -> 32 kernels + 9 host events" in out
        assert "unknown ops: 0/32 kernels (0.0%)" in out
        assert "MMBench profile" in out

    def test_sweep(self, exported, capsys):
        assert main(["ingest", str(exported), "--sweep", "1,8",
                     "--devices", "2080ti,nano"]) == 0
        out = capsys.readouterr().out
        assert "Ingested batch sweep" in out
        assert "nano" in out

    def test_serve(self, exported, capsys):
        assert main(["ingest", str(exported), "--serve",
                     "--n-requests", "200", "--arrival-rate", "500"]) == 0
        out = capsys.readouterr().out
        assert "Serving policies" in out
        assert "adaptive" in out

    def test_fixture_serves_end_to_end(self, capsys):
        assert main(["ingest", str(FIXTURES / "transformer_train.json"),
                     "--serve", "--n-requests", "100"]) == 0
        out = capsys.readouterr().out
        assert "unknown ops: 1/11" in out
        assert "Serving policies" in out

    def test_op_map_override(self, tmp_path, capsys):
        op_map = tmp_path / "map.json"
        op_map.write_text(json.dumps({"my_custom": "Gemm", "magic": "Gemm"}))
        assert main(["ingest", str(FIXTURES / "unknown_ops.json"),
                     "--op-map", str(op_map)]) == 0
        assert "unknown ops: 0/4 kernels (0.0%)" in capsys.readouterr().out

    def test_warm_cache_still_reports_unknowns(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        for _ in range(2):
            assert main(["ingest", str(FIXTURES / "unknown_ops.json"),
                         "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        # Second run is a disk hit yet still surfaces the unknown bucket.
        assert out.count("unknown ops: 2/4 kernels (50.0%)") == 2
        assert "1 hits (1 disk)" in out


class TestIngestReportBatch:
    """``ingest --report --batch-size B`` prices the graph at batch B."""

    @staticmethod
    def profile(capsys, *flags) -> str:
        assert main(["ingest", str(FIXTURES / "cnn_forward.json"), "--report",
                     *flags]) == 0
        out = capsys.readouterr().out
        return out[out.index("== MMBench profile"):out.index("trace store")]

    @pytest.mark.parametrize("flags", [(), ("--batch-size", "1")])
    def test_native_batch_report_is_unchanged(self, capsys, flags):
        assert self.profile(capsys, *flags) == CNN_FORWARD_REPORT

    def test_report_prints_the_sweep_latency(self, capsys):
        report = self.profile(capsys, "--batch-size", "64")
        assert main(["ingest", str(FIXTURES / "cnn_forward.json"),
                     "--sweep", "64", "--devices", "2080ti"]) == 0
        sweep = capsys.readouterr().out
        assert "(batch=64)" in report
        assert "  total_time           42.5 us\n" in report
        assert "  flops_per_sample     1.69e+04\n" in report
        assert re.search(r"^64 +\| 2080ti \| 0\.042 ms \|", sweep, re.M)
        # Both print the one batch-scaled price.
        stored = default_store().get_or_ingest(FIXTURES / "cnn_forward.json")
        [priced] = price_stored(stored, ["2080ti"], work=64)
        assert f"  total_time           {format_seconds(priced.total_time)}\n" in report
        assert f"| {priced.total_time * 1e3:.3f} ms |" in sweep


class TestIngestErrors:
    @pytest.mark.parametrize("fixture,fragment", [
        ("cyclic.json", "cycle"),
        ("missing_parent.json", "unknown parent"),
    ])
    def test_malformed_graphs_exit_2(self, fixture, fragment, capsys):
        assert main(["ingest", str(FIXTURES / fixture)]) == 2
        err = capsys.readouterr().err
        assert "ingest failed" in err and fragment in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["ingest", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_bad_flags_exit_2(self, capsys, exported):
        assert main(["ingest", str(exported), "--sweep", "1,x"]) == 2
        assert main(["ingest", str(exported), "--batch-size", "0"]) == 2
        assert main(["ingest", str(exported), "--op-map", "/nope.json"]) == 2

    def test_bad_device_exits_2(self, capsys, exported):
        assert main(["ingest", str(exported), "--device", "tpu9000"]) == 2


class TestSuiteIngest:
    def test_suite_ingest_profiles_fixture(self):
        suite = BenchmarkSuite("2080ti")
        result = suite.ingest(str(FIXTURES / "cnn_forward.json"))
        assert result.model_name == "cnn_forward"
        assert result.flops == 16896
        assert result.total_time > 0
        assert result.batch_size == 1  # the graph's own batch size

    def test_suite_ingest_batch_override(self):
        """A batch override reprices the graph at that batch (the price
        ``ingest --report --batch-size`` prints), not just relabels it."""
        suite = BenchmarkSuite("2080ti")
        native = suite.ingest(str(FIXTURES / "cnn_forward.json"))
        stored = default_store().get_or_ingest(FIXTURES / "cnn_forward.json")
        for batch_size in (4, 64):
            result = suite.ingest(str(FIXTURES / "cnn_forward.json"),
                                  batch_size=batch_size)
            [priced] = price_stored(stored, ["2080ti"], work=batch_size)
            assert result.batch_size == batch_size
            assert result.total_time == priced.total_time > native.total_time
            assert result.flops == 16896 * batch_size

    def test_profile_stored_prices_the_batch_it_labels(self):
        """At a batch other than the recorded one, ``profile_stored`` prices
        that batch (it once labelled b64 with the b1 price and FLOPs)."""
        stored = default_store().get_or_ingest(FIXTURES / "cnn_forward.json")
        profiler = MMBenchProfiler("2080ti")
        result = profiler.profile_stored(stored, 64)
        suite = BenchmarkSuite("2080ti").ingest(str(FIXTURES / "cnn_forward.json"),
                                                batch_size=64)
        assert result.batch_size == 64
        assert result.total_time == suite.total_time == pytest.approx(4.247e-5, rel=1e-3)
        assert profiler.profile_stored(stored).total_time == pytest.approx(3.888e-5, rel=1e-3)
        assert result.flops == 16896 * 64

    def test_suite_ingest_native_batch_is_profile_stored(self):
        suite = BenchmarkSuite("2080ti")
        stored = default_store().get_or_ingest(FIXTURES / "cnn_forward.json")
        expected = MMBenchProfiler("2080ti").profile_stored(stored, 1)
        for batch_size in (None, 1):
            result = suite.ingest(str(FIXTURES / "cnn_forward.json"),
                                  batch_size=batch_size)
            assert result.batch_size == 1
            assert result.total_time == expected.total_time
            assert result.flops == expected.flops == 16896
