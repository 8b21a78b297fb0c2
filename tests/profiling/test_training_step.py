"""The traced training path: pass taxonomy, store keys, cross-checks.

The tentpole invariants:

* backward/optimizer kernels are *traced* (emitted by the autodiff
  closures and the optimizer), not synthesized;
* the traced full-step FLOPs land in the [2, 4]x-of-forward regime the
  classic accounting predicts, on every registry workload;
* the store's pass-aware training keys never collide with inference keys;
* the demoted synthetic heuristic stays available as a cross-check and
  its loss_reduce kernel no longer prices to zero on head-less traces.
"""

import numpy as np
import pytest

from repro.core.analysis.training import (
    traced_vs_synthetic,
    training_batch_sweep,
    training_step_analysis,
)
from repro.profiling.profiler import MMBenchProfiler
from repro.profiling.training import (
    synthetic_training_trace,
    trace_training_step,
    traced_training_flops_ratio,
    training_memory_factor,
)
from repro.trace.events import PASSES
from repro.trace.store import TraceStore
from repro.workloads.registry import get_workload, list_workloads


@pytest.fixture(scope="module")
def store():
    return TraceStore()


@pytest.fixture(scope="module")
def avmnist_step(store):
    return store.get_or_capture_training("avmnist", batch_size=4, backend="meta")


class TestTracedStep:
    def test_all_four_passes_present(self, avmnist_step):
        assert avmnist_step.trace.passes() == list(PASSES)

    def test_backward_kernels_are_traced_per_op(self, avmnist_step):
        """Backward kernels come from the closures (op-specific names),
        not from the synthetic 2x twin generator."""
        bwd = avmnist_step.trace.kernels_in_pass("backward")
        assert len(bwd) > 10
        names = {k.name for k in bwd}
        # Op-specific split gradients only the traced path produces:
        assert "gemm_bwd_da" in names or "gemm_bwd_db" in names
        assert any(n.startswith("conv2d_bwd") for n in names)

    def test_backward_inherits_stage_and_modality(self, avmnist_step):
        bwd = avmnist_step.trace.kernels_in_pass("backward")
        stages = {k.stage for k in bwd}
        assert "encoder" in stages and "head" in stages
        assert {k.modality for k in bwd if k.stage == "encoder"} >= {"image", "audio"}

    def test_optimizer_kernels_per_parameter(self, avmnist_step):
        opt = avmnist_step.trace.kernels_in_pass("optimizer")
        assert opt and all(k.name == "adam_update" for k in opt)
        assert all(k.stage == "optimizer" for k in opt)

    def test_loss_kernels_tagged(self, avmnist_step):
        loss = avmnist_step.trace.kernels_in_pass("loss")
        assert loss and all(k.stage == "head" for k in loss)

    @pytest.mark.parametrize("workload", list_workloads())
    def test_ratio_within_accounting_regime(self, workload, store):
        """Acceptance: traced training FLOPs within [2, 4]x of forward on
        all nine workloads."""
        stored = store.get_or_capture_training(workload, batch_size=2, backend="meta")
        assert 2.0 < traced_training_flops_ratio(stored.trace) < 4.0

    def test_eager_capture_matches_meta(self, store, avmnist_step):
        eager = store.get_or_capture_training("avmnist", batch_size=4, backend="eager")
        cols_e = eager.trace.columns()
        cols_m = avmnist_step.trace.columns()
        assert cols_e.n == cols_m.n
        np.testing.assert_array_equal(cols_e.pass_codes, cols_m.pass_codes)
        np.testing.assert_allclose(cols_e.flops, cols_m.flops)

    def test_optimizer_choice_changes_update_kernels(self, store):
        adam = store.get_or_capture_training("avmnist", batch_size=2, backend="meta",
                                             optimizer="adam")
        sgd = store.get_or_capture_training("avmnist", batch_size=2, backend="meta",
                                            optimizer="sgd")
        adam_opt = sum(k.flops for k in adam.trace.kernels_in_pass("optimizer"))
        sgd_opt = sum(k.flops for k in sgd.trace.kernels_in_pass("optimizer"))
        assert adam_opt > sgd_opt > 0

    def test_unknown_optimizer_rejected(self):
        model = get_workload("avmnist").build(seed=0)
        with pytest.raises(KeyError, match="unknown optimizer"):
            trace_training_step(model, batch_size=2, optimizer="lamb")


class TestStoreKeys:
    def test_training_key_disjoint_from_inference(self, store):
        k_inf = store.make_key("avmnist", batch_size=4)
        k_train = store.make_key("avmnist", batch_size=4, mode="train:adam")
        assert k_inf.digest() != k_train.digest()

    def test_warm_training_hit_skips_capture(self, store):
        store.reset_stats()
        store.get_or_capture_training("avmnist", batch_size=4, backend="meta")
        captures = store.stats["captures"]
        store.get_or_capture_training("avmnist", batch_size=4, backend="meta")
        assert store.stats["captures"] == captures
        assert store.stats["hits"] >= 1

    def test_training_capture_does_not_poison_inference_model(self, store):
        """Training mutates parameters; the memoized inference model must
        keep producing the seed-deterministic trace."""
        store.get_or_capture_training("avmnist", batch_size=3, seed=7, backend="eager")
        first = store.get_or_capture("avmnist", batch_size=3, seed=7,
                                     backend="eager")
        fresh = TraceStore().get_or_capture("avmnist", batch_size=3, seed=7,
                                            backend="eager")
        np.testing.assert_allclose(first.trace.columns().flops,
                                   fresh.trace.columns().flops)


class TestAnalysis:
    @pytest.fixture(scope="class")
    def breakdown(self, store):
        return training_step_analysis(workloads=["avmnist"], batch_size=4,
                                      store=store)["avmnist"]

    def test_pass_times_cover_step(self, breakdown):
        assert set(breakdown.pass_time) == set(PASSES)
        assert breakdown.pass_time["backward"] > breakdown.pass_time["forward"]
        assert breakdown.pass_time["optimizer"] > 0

    def test_pass_stage_grid(self, breakdown):
        grid = breakdown.pass_stage_time
        assert grid["forward"].keys() >= {"encoder", "fusion", "head"}
        assert grid["backward"].keys() >= {"encoder", "fusion", "head"}
        assert list(grid["optimizer"]) == ["optimizer"]

    def test_modality_pass_grid(self, breakdown):
        per_mod = breakdown.modality_pass_time
        assert set(per_mod) == {"image", "audio"}
        for passes in per_mod.values():
            assert passes["backward"] > passes["forward"] > 0

    def test_memory_factor_scales_with_optimizer_state(self):
        assert training_memory_factor("adam") > training_memory_factor("sgd")
        with pytest.raises(KeyError, match="unknown optimizer"):
            training_memory_factor("lamb")

    def test_batch_sweep_one_pass_pricing(self, store):
        grid = training_batch_sweep("avmnist", batches=(1, 8),
                                    devices=("2080ti", "nano"), store=store)
        assert set(grid) == {(1, "2080ti"), (1, "nano"), (8, "2080ti"), (8, "nano")}
        # More work per step at the larger batch, slower on the edge board.
        assert grid[(8, "2080ti")].total_time > grid[(1, "2080ti")].total_time
        assert grid[(8, "nano")].total_time > grid[(8, "2080ti")].total_time

    def test_traced_vs_synthetic_agree(self, store):
        check = traced_vs_synthetic("avmnist", batch_size=4, store=store)
        assert 2.0 < check.traced_ratio < 4.0
        assert 2.0 < check.synthetic_ratio < 4.0
        assert 0.5 < check.agreement < 2.0


class TestSyntheticCrossCheck:
    def test_loss_reduce_headless_fallback(self):
        """Regression: a trace with no head-stage kernels used to price
        the loss_reduce kernel to zero FLOPs."""
        from repro.trace.events import KernelCategory, KernelEvent
        from repro.trace.tracer import Trace

        kernels = [
            KernelEvent(name="gemm", category=KernelCategory.GEMM, flops=1e6,
                        bytes_read=4e4, bytes_written=2e4, threads=256,
                        stage="encoder"),
            KernelEvent(name="relu", category=KernelCategory.RELU, flops=5e3,
                        bytes_read=2e4, bytes_written=1.6e4, threads=256,
                        stage="encoder"),
        ]
        train = synthetic_training_trace(Trace(kernels=kernels), param_bytes=4e5)
        loss = next(k for k in train.kernels if k.name == "loss_reduce")
        # Falls back to the final kernel's output (the tensor the loss reads).
        assert loss.flops == pytest.approx(1.6e4 / 4.0)
        assert loss.bytes_read == pytest.approx(1.6e4)

    def test_loss_reduce_uses_head_output_when_present(self):
        from repro.data.synthetic import random_batch

        model = get_workload("avmnist").build(seed=0)
        trace = MMBenchProfiler().capture(
            model, random_batch(model.shapes, 2, seed=0))
        head_out = max(k.bytes_written for k in trace.kernels
                       if k.stage == "head")
        train = synthetic_training_trace(trace, model.parameter_bytes())
        loss = next(k for k in train.kernels if k.name == "loss_reduce")
        assert loss.flops == pytest.approx(head_out / 4.0)
        assert loss.flops > 0
