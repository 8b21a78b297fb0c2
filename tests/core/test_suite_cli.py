"""Benchmark suite front-end and CLI."""

import numpy as np
import pytest

from repro.core.cli import build_parser, main
from repro.core.suite import BenchmarkSuite, RunConfig


@pytest.fixture
def suite():
    return BenchmarkSuite("2080ti")


class TestSuite:
    def test_workload_inventory(self, suite):
        assert len(suite.workloads()) == 9
        assert suite.info("avmnist").domain == "Multimedia"

    def test_run_inference_default(self, suite):
        result = suite.run_inference(RunConfig(workload="avmnist", batch_size=4))
        assert result.batch_size == 4
        assert result.total_time > 0

    def test_run_inference_unimodal(self, suite):
        result = suite.run_inference(RunConfig(workload="avmnist", unimodal="image",
                                               batch_size=2))
        assert result.modalities == ["image"]

    def test_run_inference_fusion_choice(self, suite):
        result = suite.run_inference(RunConfig(workload="avmnist", fusion="tensor",
                                               batch_size=2))
        assert "tensor" in result.model_name

    def test_run_training_step(self, suite):
        loss = suite.run_training_step(RunConfig(workload="avmnist", batch_size=4))
        assert np.isfinite(loss) and loss > 0

    @pytest.mark.parametrize("unimodal", [None, "image"])
    def test_eager_paths_build_the_model_once(self, suite, model_builds, unimodal):
        config = RunConfig(workload="avmnist", unimodal=unimodal, batch_size=2,
                           synthetic_inputs=False)
        result = suite.run_inference(config)
        assert model_builds == ["avmnist"]
        assert len(result.modalities) == (1 if unimodal else 2)
        suite.run_training_step(config)
        assert model_builds == ["avmnist"] * 2

    def test_latent_inputs(self, suite):
        config = RunConfig(workload="avmnist", batch_size=4, synthetic_inputs=False)
        batch = suite.make_batch(config)
        assert set(batch) == {"image", "audio"}

    def test_summarize(self, suite):
        result = suite.run_inference(RunConfig(workload="avmnist", batch_size=2))
        assert "[system]" in suite.summarize(result)


class TestCLI:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "avmnist" in out and "transfuser" in out

    def test_run_command(self, capsys):
        assert main(["run", "--workload", "avmnist", "--batch-size", "2"]) == 0
        out = capsys.readouterr().out
        assert "MMBench profile" in out

    def test_run_on_edge_device(self, capsys):
        assert main(["run", "--workload", "avmnist", "--device", "nano",
                     "--batch-size", "2"]) == 0
        assert "jetson_nano" in capsys.readouterr().out

    def test_parser_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "nope"])

    def test_analyze_stage_time(self, capsys):
        assert main(["analyze", "stage-time"]) == 0
        assert "Figure 6" in capsys.readouterr().out
