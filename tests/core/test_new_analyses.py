"""Concurrency, serving and robustness analyses; training-trace synthesis;
model serialization."""

import numpy as np
import pytest

from repro import nn
from repro.core.analysis.concurrency import analyze_concurrency, concurrency_study
from repro.core.analysis.robustness import robustness_analysis
from repro.core.analysis.serving import best_batch_for_slo, serving_sweep
from repro.data.synthetic import random_batch
from repro.profiling.profiler import MMBenchProfiler
from repro.profiling.training import synthetic_training_trace, training_flops_ratio
from repro.workloads.registry import get_workload


class TestConcurrency:
    @pytest.fixture(scope="class")
    def push_report(self):
        info = get_workload("mujoco_push")
        model = info.build(seed=0)
        batch = random_batch(info.shapes, 64, seed=0)
        return MMBenchProfiler("2080ti").profile(model, batch).report

    def test_geometry(self, push_report):
        c = analyze_concurrency(push_report)
        assert c.straggler == "image"
        assert c.straggler_ratio > 1.3
        assert c.concurrent_encoder_time == pytest.approx(max(c.modality_times.values()))
        assert c.serial_encoder_time == pytest.approx(sum(c.modality_times.values()))
        assert c.concurrency_speedup > 1.0
        assert c.idle_stream_share == pytest.approx(0.75)  # 4 modalities

    def test_idle_fractions_bounded(self, push_report):
        c = analyze_concurrency(push_report)
        assert 0.0 < c.idle_resource_fraction < 1.0
        assert 0.0 < c.idle_window_fraction < 1.0
        # The straggler forces the other streams idle for a large window,
        # the Sec. 4.3.3 phenomenon.
        assert c.idle_window_fraction > 0.3

    def test_unimodal_rejected(self):
        info = get_workload("avmnist")
        model = info.build_unimodal("image", seed=0)
        report = MMBenchProfiler("2080ti").profile(
            model, random_batch(model.shapes, 8, seed=0)).report
        with pytest.raises(ValueError, match="multi-modal"):
            analyze_concurrency(report)

    def test_study_runs_multiple_workloads(self):
        out = concurrency_study(workloads=("avmnist", "mujoco_push"), batch_size=32)
        assert set(out) == {"avmnist", "mujoco_push"}


class TestServing:
    @pytest.fixture(scope="class")
    def sweep(self):
        return serving_sweep(batch_sizes=(1, 40, 400), n_tasks=2_000)

    def test_throughput_grows_with_batch(self, sweep):
        assert sweep[400].throughput > sweep[40].throughput > sweep[1].throughput

    def test_closed_batch_full_utilization(self, sweep):
        for result in sweep.values():
            assert result.total_utilization == pytest.approx(1.0)

    def test_slo_selection(self, sweep):
        never = best_batch_for_slo(sweep, p99_slo=1e-9)
        assert never is None
        always = best_batch_for_slo(sweep, p99_slo=1e9)
        assert always == 400


class TestTrainingTrace:
    @pytest.fixture(scope="class")
    def forward_and_model(self):
        info = get_workload("avmnist")
        model = info.build(seed=0)
        batch = random_batch(info.shapes, 8, seed=0)
        trace = MMBenchProfiler("2080ti").capture(model, batch)
        return trace, model

    def test_flops_ratio_about_three(self, forward_and_model):
        trace, model = forward_and_model
        ratio = training_flops_ratio(trace, model.parameter_bytes())
        assert 2.8 < ratio < 4.0

    def test_structure_preserved(self, forward_and_model):
        trace, model = forward_and_model
        train = synthetic_training_trace(trace, model.parameter_bytes())
        assert set(train.stages()) == set(trace.stages())
        assert set(train.modalities()) == set(trace.modalities())
        # Forward + backward + loss + optimizer update.
        assert len(train.kernels) == 2 * len(trace.kernels) + 2

    def test_optimizer_choice_changes_update_cost(self, forward_and_model):
        trace, model = forward_and_model
        adam = synthetic_training_trace(trace, model.parameter_bytes(), "adam")
        sgd = synthetic_training_trace(trace, model.parameter_bytes(), "sgd")
        assert adam.total_flops > sgd.total_flops
        with pytest.raises(KeyError, match="unknown optimizer"):
            synthetic_training_trace(trace, 1.0, "lamb")

    def test_priced_training_step_slower_than_inference(self, forward_and_model):
        trace, model = forward_and_model
        profiler = MMBenchProfiler("2080ti")
        fwd = profiler.price(model, trace, 8)
        train = profiler.price(model, synthetic_training_trace(trace, model.parameter_bytes()), 8)
        assert train.gpu_time > 2 * fwd.gpu_time


class TestRobustness:
    @pytest.fixture(scope="class")
    def report(self):
        return robustness_analysis(n_train=192, n_test=128, epochs=4)

    def test_clean_metric_reasonable(self, report):
        assert report.clean_metric > 0.5

    def test_dropping_major_modality_hurts_more(self, report):
        assert report.degradation("image") < report.degradation("audio") <= 0.01

    def test_noise_monotonically_degrades(self, report):
        metrics = [report.noise_sweep[s] for s in sorted(report.noise_sweep)]
        assert metrics[0] >= metrics[-1]
        assert report.clean_metric >= metrics[-1]


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        info = get_workload("avmnist")
        a = info.build(seed=0)
        b = info.build(seed=99)
        path = tmp_path / "ckpt.npz"
        nn.save_npz(a, path)
        nn.load_npz(b, path)
        batch = random_batch(info.shapes, 2, seed=0)
        with nn.no_grad():
            np.testing.assert_allclose(a(batch).data, b(batch).data, rtol=1e-6)

    def test_buffers_roundtrip(self, tmp_path):
        info = get_workload("medical_seg")
        a = info.build(seed=0)
        # Mutate a BatchNorm running stat, save, and reload elsewhere.
        batch = random_batch(info.shapes, 2, seed=0)
        a.train()
        a(batch)  # updates running stats
        path = tmp_path / "seg.npz"
        nn.save_npz(a, path)
        b = info.build(seed=1)
        nn.load_npz(b, path)
        np.testing.assert_allclose(
            a.encoders["t1"].enc1.bn.running_mean,
            b.encoders["t1"].enc1.bn.running_mean,
        )

    def test_mismatched_model_fails_loudly(self, tmp_path):
        avmnist = get_workload("avmnist").build(seed=0)
        push = get_workload("mujoco_push").build(seed=0)
        path = tmp_path / "a.npz"
        nn.save_npz(avmnist, path)
        with pytest.raises((KeyError, ValueError)):
            nn.load_npz(push, path)
