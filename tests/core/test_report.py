"""Characterization report generator."""

import pytest

from repro.core.cli import main
from repro.core.report import characterization_report
from repro.hw.device import get_device
from repro.hw.energy import report_energy
from repro.hw.engine import ExecutionEngine
from repro.hw.vectorized import STALL_REASONS
from repro.profiling.report import format_seconds
from repro.trace.store import TraceStore, set_default_store

DEVICES = ("2080ti", "orin", "nano")


@pytest.fixture
def store_at():
    """Install a fresh default store (optionally on disk); restore after."""
    prev = set_default_store(None)

    def install(cache_dir=None):
        store = TraceStore(cache_dir)
        set_default_store(store)
        return store

    yield install
    set_default_store(prev)


class TestCharacterizationReport:
    @pytest.fixture(scope="class")
    def text(self):
        return characterization_report("mujoco_push", batch_size=16)

    def test_all_sections_present(self, text):
        for section in ("# MMBench characterization", "## Algorithm level",
                        "## Three-stage profile", "### Kernel mix",
                        "### Modality balance", "### Synchronization split",
                        "### Peak memory", "## Cross-device summary"):
            assert section in text, section

    def test_stages_and_modalities_listed(self, text):
        for token in ("encoder", "fusion", "head", "position", "image"):
            assert token in text

    def test_cross_device_rows(self, text):
        for device in ("2080ti", "orin", "nano"):
            assert device in text

    def test_unimodal_report_skips_modality_section(self, store_at):
        store = store_at()
        uni = store.get_or_capture("avmnist", unimodal="image", batch_size=8,
                                   backend="meta")
        assert len(uni.modalities) == 1
        store.put(store.make_key("avmnist", batch_size=8, backend="meta"), uni)
        text = characterization_report("avmnist", batch_size=8, devices=("2080ti",))
        assert f"# MMBench characterization: {uni.model_name}" in text
        assert "Modality balance" not in text
        assert "### Synchronization split" in text

    def test_fusion_choice_reflected(self):
        text = characterization_report("avmnist", fusion="tensor", batch_size=8,
                                       devices=("2080ti",))
        assert "avmnist[tensor]" in text


class TestWarmReport:
    def test_warm_render_needs_no_model(self, tmp_path, store_at, model_builds):
        store_at(tmp_path)
        cold = characterization_report("mujoco_push", batch_size=8, devices=DEVICES)
        assert model_builds == ["mujoco_push"]  # the cold capture's one build

        warm_store = store_at(tmp_path)  # reopened, as a new process would
        warm = characterization_report("mujoco_push", batch_size=8, devices=DEVICES)

        assert model_builds == ["mujoco_push"]
        assert warm_store.stats["captures"] == 0
        assert warm_store.stats["misses"] == 0
        assert warm_store.stats["disk_hits"] == 1
        assert warm == cold

    def test_cross_device_rows_match_per_device_runs(self, store_at):
        store = store_at()
        text = characterization_report("mmimdb", batch_size=16, devices=DEVICES)
        stored = store.get_or_capture("mmimdb", batch_size=16, backend="meta")
        for device in DEVICES:
            rep = ExecutionEngine(get_device(device)).run(
                stored.trace, model_bytes=stored.parameter_bytes,
                input_bytes=stored.input_bytes)
            stalls = rep.overall_stalls()
            dominant = max(STALL_REASONS, key=lambda r: stalls.get(r, 0.0))
            row = (f"| {device} | {format_seconds(rep.total_time)} | "
                   f"{rep.cpu_runtime_share:.0%} | "
                   f"{report_energy(rep).total * 1e3:.2f} mJ | "
                   f"{dominant} ({stalls[dominant]:.0%}) |")
            assert row in text, device


class TestReportCLI:
    def test_stdout(self, capsys):
        assert main(["report", "--workload", "avmnist", "--batch-size", "8"]) == 0
        assert "# MMBench characterization" in capsys.readouterr().out

    def test_file_output(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert main(["report", "--workload", "avmnist", "--batch-size", "8",
                     "-o", str(target)]) == 0
        assert target.exists()
        assert "Cross-device summary" in target.read_text()
