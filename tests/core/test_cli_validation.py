"""Eager CLI input validation on run/report/analyze, plus trace options.

PR 1 gave ``mmbench serve`` fail-fast validation (one clean stderr line,
exit code 2, no traceback); this extends the same contract to the other
subcommands and covers the new ``--backend`` / ``--cache-dir`` flags.
"""

import pytest

from repro.core.cli import build_parser, main
from repro.trace.store import set_default_store


@pytest.fixture(autouse=True)
def fresh_default_store():
    prev = set_default_store(None)
    yield
    set_default_store(prev)


class TestRunValidation:
    def test_unknown_device_fails_cleanly(self, capsys):
        assert main(["run", "--device", "warp9"]) == 2
        err = capsys.readouterr().err
        assert "unknown device" in err and "Traceback" not in err

    def test_unknown_fusion_fails_cleanly(self, capsys):
        assert main(["run", "--workload", "avmnist", "--fusion", "teleport"]) == 2
        err = capsys.readouterr().err
        assert "unknown fusion" in err and "available" in err

    def test_unknown_modality_fails_cleanly(self, capsys):
        assert main(["run", "--workload", "avmnist", "--unimodal", "smell"]) == 2
        assert "unknown modality" in capsys.readouterr().err

    def test_nonpositive_batch_fails_cleanly(self, capsys):
        assert main(["run", "--batch-size", "0"]) == 2
        assert "--batch-size must be positive" in capsys.readouterr().err

    def test_unknown_workload_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "nope"])


class TestReportValidation:
    def test_unknown_fusion_fails_cleanly(self, capsys):
        assert main(["report", "--workload", "avmnist", "--fusion", "zipper"]) == 2
        assert "unknown fusion" in capsys.readouterr().err

    def test_nonpositive_batch_fails_cleanly(self, capsys):
        assert main(["report", "--batch-size", "-3"]) == 2
        assert "--batch-size must be positive" in capsys.readouterr().err


class TestAnalyzeValidation:
    def test_unknown_device_fails_cleanly(self, capsys):
        assert main(["analyze", "stage-time", "--device", "tpu9000"]) == 2
        err = capsys.readouterr().err
        assert "unknown device" in err and "Traceback" not in err


class TestTraceOptions:
    def test_run_prints_cache_stats(self, capsys):
        assert main(["run", "--workload", "avmnist", "--batch-size", "2"]) == 0
        out = capsys.readouterr().out
        assert "trace store" in out and "1 captures" in out

    def test_serve_prints_cache_stats(self, capsys):
        assert main(["serve", "--n-requests", "50", "--policy", "fixed",
                     "--devices", "2080ti"]) == 0
        assert "trace store" in capsys.readouterr().out

    def test_analyze_stage_time_uses_store(self, capsys):
        assert main(["analyze", "stage-time"]) == 0
        out = capsys.readouterr().out
        assert "9 captures" in out  # one store capture per workload

    def test_run_eager_backend(self, capsys):
        assert main(["run", "--workload", "avmnist", "--batch-size", "2",
                     "--backend", "eager"]) == 0
        assert "MMBench profile" in capsys.readouterr().out

    def test_backend_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--backend", "quantum"])

    def test_cache_dir_persists_and_warm_starts(self, tmp_path, capsys):
        cache = tmp_path / "traces"
        assert main(["run", "--workload", "avmnist", "--batch-size", "2",
                     "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        assert list(cache.glob("*.mmt"))
        # A second CLI invocation warm-starts from disk: zero captures.
        set_default_store(None)
        assert main(["run", "--workload", "avmnist", "--batch-size", "2",
                     "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "0 captures" in out and "1 disk" in out

    def test_meta_and_eager_runs_report_identical_times(self, capsys):
        assert main(["run", "--workload", "avmnist", "--batch-size", "2",
                     "--backend", "meta"]) == 0
        meta_out = capsys.readouterr().out
        set_default_store(None)
        assert main(["run", "--workload", "avmnist", "--batch-size", "2",
                     "--backend", "eager"]) == 0
        eager_out = capsys.readouterr().out
        def pick(text):
            return [ln for ln in text.splitlines()
                    if "total" in ln or "GPU" in ln or "flops" in ln]

        assert pick(meta_out) == pick(eager_out)
