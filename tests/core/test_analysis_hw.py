"""Hardware-model analyses (Figures 6-15): fast, deterministic checks
that the paper's qualitative findings hold in the reproduction."""

import dataclasses

import pytest

from repro.core import analysis
from repro.core.report import characterization_report
from repro.hw.device import RTX_2080TI
from repro.profiling.profiler import price_grid
from repro.serving.faults import degraded_mode_for
from repro.trace import store as store_mod
from repro.trace.store import TraceStore


WORKLOADS_FAST = ["avmnist", "mujoco_push", "mmimdb"]


class TestStageAnalysis:
    """Figures 6-7."""

    @pytest.fixture(scope="class")
    def times(self):
        return analysis.stage_time_analysis(workloads=WORKLOADS_FAST, batch_size=16)

    @pytest.fixture(scope="class")
    def resources(self):
        return analysis.stage_resource_analysis(workloads=["avmnist"], batch_size=16)

    def test_three_stages_everywhere(self, times):
        for stages in times.values():
            assert set(stages) == {"encoder", "fusion", "head"}

    def test_encoder_dominates_most_workloads(self, times):
        assert times["avmnist"]["encoder"] > times["avmnist"]["fusion"]
        assert times["mmimdb"]["encoder"] > times["mmimdb"]["fusion"]

    def test_complex_fusion_can_exceed_encoder(self, times):
        """MuJoCo Push's fusion outweighs its encoders (Sec. 4.3.1)."""
        assert times["mujoco_push"]["fusion"] > times["mujoco_push"]["encoder"]

    def test_encoder_richer_resources(self, resources):
        stages = resources["avmnist"]
        for metric in ("dram_utilization", "achieved_occupancy", "ipc"):
            assert stages["encoder"][metric] > stages["fusion"][metric], metric

    def test_load_store_efficiency_flat(self, resources):
        """gld/gst efficiency is roughly stage-independent (Sec. 4.3.1)."""
        stages = resources["avmnist"]
        values = [stages[s]["gld_efficiency"] for s in stages]
        assert max(values) - min(values) < 0.25


class TestHeterogeneity:
    """Figures 8-9."""

    def test_stage_kernel_mixes_differ(self):
        data = analysis.kernel_breakdown_analysis(workloads=["avmnist"], batch_size=16)
        stages = data["avmnist"]
        dominant = {stage: max(cats, key=cats.get) for stage, cats in stages.items()}
        assert len(set(dominant.values())) >= 2

    def test_breakdown_shares_sum_to_one(self):
        data = analysis.kernel_breakdown_analysis(workloads=["mmimdb"], batch_size=16)
        for cats in data["mmimdb"].values():
            assert sum(cats.values()) == pytest.approx(1.0)

    def test_hotspot_varies_across_stages(self):
        records = analysis.hotspot_across_stages(batch_size=16)
        assert len(records) == 3
        ops = {r.context: r.fp32_ops for r in records}
        # Orders-of-magnitude spread between encoder and head hotspots.
        assert ops["encoder"] > 5 * ops["head"]

    def test_tensor_fusion_reads_more_dram(self):
        records = analysis.hotspot_across_fusions(batch_size=16)
        by_fusion = {r.context: r for r in records}
        assert by_fusion["tensor"].dram_read_bytes > 1.5 * by_fusion["concat"].dram_read_bytes
        # ... while staying at a comparable cache-behaviour level (Fig. 9b).
        assert by_fusion["tensor"].l2_hit_rate == pytest.approx(
            by_fusion["concat"].l2_hit_rate, abs=0.3)


class TestSynchronization:
    """Figures 10-11."""

    def test_image_is_straggler(self):
        times = analysis.modality_time_analysis(workloads=("mujoco_push",), batch_size=32)
        push = times["mujoco_push"]
        assert max(push, key=push.get) == "image"
        assert push["image"] > 1.3  # normalized to the fastest modality

    def test_normalization_floor_is_one(self):
        times = analysis.modality_time_analysis(workloads=("avmnist",), batch_size=16)
        assert min(times["avmnist"].values()) == pytest.approx(1.0)

    def test_multi_has_larger_cpu_runtime_share(self):
        rows = analysis.sync_share_analysis(batch_size=32)
        by_key = {(r.workload, r.variant): r for r in rows}
        for workload in ("avmnist", "mujoco_push", "medical_seg", "vision_touch"):
            uni = by_key[(workload, "uni")]
            multi = by_key[(workload, "multi")]
            assert multi.cpu_runtime_share > uni.cpu_runtime_share, workload
            assert uni.cpu_runtime_share + uni.gpu_share == pytest.approx(1.0)

    def test_figure_analyses_capture_on_meta(self, monkeypatch):
        """Figs. 10-11, Sec. 4.3.3 and the degraded serving mode fetch
        through ``price_grid``: they capture the meta traces every other
        analysis reads, not eager ones under keys of their own."""
        store = TraceStore()
        monkeypatch.setattr(store_mod, "_DEFAULT_STORE", store)
        analysis.modality_time_analysis(workloads=("avmnist",), batch_size=4)
        analysis.sync_share_analysis(workloads=("avmnist",), batch_size=4)
        analysis.concurrency_study(workloads=("avmnist",), batch_size=4)
        degraded_mode_for("avmnist", enter_wait=0.05, batch_size=4)
        assert store.stats["captures"] == 2  # avmnist and its image-only variant
        price_grid(["avmnist"], [4], ["2080ti"])
        price_grid(["avmnist"], [4], ["2080ti"], unimodal="image")
        assert store.stats["captures"] == 2


class TestBatchSize:
    """Figures 12-13."""

    @pytest.fixture(scope="class")
    def results(self):
        return analysis.batch_size_study(batch_sizes=(40, 400), total_tasks=10_000)

    def test_larger_batches_use_larger_kernels(self, results):
        by_key = {(r.variant, r.batch_size): r for r in results}
        for variant in ("slfs", "image"):
            small = by_key[(variant, 40)].kernel_size_distribution
            large = by_key[(variant, 400)].kernel_size_distribution
            assert large["0-10"] < small["0-10"]

    def test_10x_batch_far_less_than_10x_speedup(self, results):
        for variant in ("slfs", "image"):
            speedup = analysis.speedup_factor(results, variant, 40, 400)
            assert 1.5 < speedup < 8.0, variant

    def test_multimodal_slower_overall(self, results):
        by_key = {(r.variant, r.batch_size): r for r in results}
        assert (by_key[("slfs", 40)].inference_time_total
                > by_key[("image", 40)].inference_time_total)

    def test_peak_memory_linear_and_multi_heavier(self):
        mem = analysis.peak_memory_study(batch_sizes=(40, 400))
        for variant in ("slfs", "image"):
            m40, m400 = mem[variant][40], mem[variant][400]
            # Model is batch-invariant; dataset and intermediate scale ~10x.
            assert m400.model == pytest.approx(m40.model)
            assert m400.dataset == pytest.approx(10 * m40.dataset, rel=0.01)
            assert m400.intermediate == pytest.approx(10 * m40.intermediate, rel=0.15)
        assert mem["slfs"][400].intermediate > mem["image"][400].intermediate


class TestEdge:
    """Figures 14-15."""

    @pytest.fixture(scope="class")
    def latencies(self):
        return analysis.edge_latency_study()

    @pytest.fixture(scope="class")
    def stalls(self):
        return analysis.edge_stall_study()

    def test_nano_much_slower_than_server(self, latencies):
        by_key = {(r.device, r.variant, r.batch_size): r for r in latencies}
        ratio = (by_key[("nano", "slfs", 40)].inference_time
                 / by_key[("2080ti", "slfs", 40)].inference_time)
        assert ratio > 4.0

    def test_nano_latency_rises_at_b320(self, latencies):
        by_key = {(r.device, r.variant, r.batch_size): r for r in latencies}
        nano = [by_key[("nano", "slfs", b)].inference_time for b in (40, 80, 160, 320)]
        assert nano[3] > nano[2]  # the capacity cliff
        server = [by_key[("2080ti", "slfs", b)].inference_time for b in (40, 80, 160, 320)]
        assert server == sorted(server, reverse=True)  # monotone decrease

    def test_cliff_driven_by_memory_pressure(self, latencies):
        by_key = {(r.device, r.variant, r.batch_size): r for r in latencies}
        assert by_key[("nano", "slfs", 320)].memory_pressure > 0.8
        assert by_key[("nano", "slfs", 160)].memory_pressure < 0.8
        assert by_key[("2080ti", "slfs", 320)].slowdown == 1.0

    def test_stall_mix_shifts(self, stalls):
        assert analysis.dominant_stalls(stalls, "nano")[0] == "Exec"
        assert analysis.dominant_stalls(stalls, "2080ti")[0] in ("Mem", "Cache")

    def test_stage_stall_profiles_present(self, stalls):
        configs = {p.config for p in stalls if p.device == "nano"}
        assert {"uni0", "uni1", "slfs", "encoder", "fusion", "head"} <= configs

    def test_nano_resource_usage(self):
        counters = analysis.edge_resource_study()
        # DRAM utilization stays high across stages on the nano (Fig. 15c).
        for stage, c in counters.items():
            assert c["dram_utilization"] > 0.3, stage
        # Fusion occupancy no longer trails the encoder's on the edge.
        assert (counters["fusion"]["achieved_occupancy"]
                >= counters["encoder"]["achieved_occupancy"] - 1e-6)

    def test_multimodal_ratio_reported_everywhere(self, latencies):
        ratios = analysis.multimodal_ratio(latencies, 40)
        assert set(ratios) == {"nano", "orin", "2080ti"}
        assert all(r > 1.0 for r in ratios.values())


#: A renamed 2080Ti with a quarter of its DRAM bandwidth and FP32 peak.
PERTURBED = dataclasses.replace(RTX_2080TI, name="perturbed",
                                dram_bandwidth=RTX_2080TI.dram_bandwidth / 4,
                                peak_fp32_flops=RTX_2080TI.peak_fp32_flops / 4)

#: Each single-device grid analysis, called with one device argument.
SINGLE_DEVICE = {
    "stage_time": lambda d: analysis.stage_time_analysis(["avmnist"], 4, device=d),
    "stage_resource": lambda d: analysis.stage_resource_analysis(["avmnist"], 4, device=d),
    "kernel_breakdown": lambda d: analysis.kernel_breakdown_analysis(["avmnist"], 4, device=d),
    "hotspot_stages": lambda d: analysis.hotspot_across_stages(batch_size=4, device=d),
    "hotspot_fusions": lambda d: analysis.hotspot_across_fusions(batch_size=4, device=d),
    "batch_size": lambda d: analysis.batch_size_study(batch_sizes=(4, 8), device=d),
    "peak_memory": lambda d: analysis.peak_memory_study(batch_sizes=(4, 8), device=d),
    "edge_resource": lambda d: analysis.edge_resource_study(batch_size=4, device=d),
}


def _unlabelled(rows):
    return [dataclasses.replace(r, device="") for r in rows]


class TestDeviceSpecArguments:
    """Every grid analysis takes a ``DeviceSpec`` where it takes a device
    name, prices the spec as the name it stands for, and labels its rows
    with the spec's ``name`` (the grid key)."""

    @pytest.mark.parametrize("call", SINGLE_DEVICE.values(), ids=SINGLE_DEVICE.keys())
    def test_spec_prices_as_its_name(self, call):
        assert call(RTX_2080TI) == call("2080ti")

    @pytest.mark.parametrize(
        "call", [c for k, c in SINGLE_DEVICE.items() if k != "peak_memory"],
        ids=[k for k in SINGLE_DEVICE if k != "peak_memory"])
    def test_perturbed_spec_prices_differently(self, call):
        assert call(PERTURBED) != call("2080ti")

    def test_edge_latency_rows_carry_the_spec_name(self):
        by_name = analysis.edge_latency_study(batch_sizes=(40,), devices=("2080ti",))
        by_spec = analysis.edge_latency_study(batch_sizes=(40,),
                                              devices=(RTX_2080TI, PERTURBED))
        assert [r.device for r in by_spec] == ["rtx2080ti", "perturbed"] * 2
        assert _unlabelled(by_spec[0::2]) == _unlabelled(by_name)
        assert [r.inference_time for r in by_spec[1::2]] != \
            [r.inference_time for r in by_name]
        assert list(analysis.multimodal_ratio(by_spec, 40)) == ["rtx2080ti", "perturbed"]

    def test_edge_stall_profiles_carry_the_spec_name(self):
        by_name = analysis.edge_stall_study(devices=("2080ti",))
        by_spec = analysis.edge_stall_study(devices=(RTX_2080TI, PERTURBED))
        half = len(by_name)
        assert [p.device for p in by_spec] == ["rtx2080ti"] * half + ["perturbed"] * half
        assert _unlabelled(by_spec[:half]) == _unlabelled(by_name)
        assert [p.stalls for p in by_spec[half:]] != [p.stalls for p in by_name]

    def test_report_rows_carry_the_spec_name(self):
        by_name = characterization_report("avmnist", batch_size=4, devices=("2080ti",))
        by_spec = characterization_report("avmnist", batch_size=4, devices=(RTX_2080TI,))
        assert by_spec.replace("rtx2080ti", "2080ti") == by_name
        perturbed = characterization_report("avmnist", batch_size=4, devices=(PERTURBED,))
        assert "## Three-stage profile on perturbed" in perturbed
        assert "| perturbed |" in perturbed
        assert perturbed.replace("perturbed", "2080ti") != by_name
