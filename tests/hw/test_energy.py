"""Energy model."""

import dataclasses

import pytest

from repro.data.synthetic import random_batch
from repro.hw.device import RTX_2080TI
from repro.hw.energy import (
    energy_delay_product,
    modality_energy,
    report_energy,
    stage_energy,
)
from repro.profiling.profiler import MMBenchProfiler
from repro.workloads.registry import get_workload


@pytest.fixture(scope="module")
def reports():
    info = get_workload("avmnist")
    model = info.build(seed=0)
    batch = random_batch(info.shapes, 32, seed=0)
    profiler = MMBenchProfiler("2080ti")
    trace = profiler.capture(model, batch)
    return {
        "2080ti": profiler.price(model, trace, 32, device="2080ti"),
        "nano": profiler.price(model, trace, 32, device="nano"),
        "orin": profiler.price(model, trace, 32, device="orin"),
        "renamed": profiler.price(
            model, trace, 32, device=dataclasses.replace(RTX_2080TI, name="rtx2080ti-copy")),
    }


class TestEnergyBreakdown:
    def test_components_positive_and_total(self, reports):
        e = report_energy(reports["2080ti"])
        assert e.compute > 0 and e.memory > 0 and e.idle > 0 and e.host > 0
        assert e.total == pytest.approx(e.compute + e.memory + e.idle + e.host)
        assert e.device_total == pytest.approx(e.total - e.host)
        assert set(e.as_dict()) == {"compute", "memory", "idle", "host", "total"}

    def test_server_burns_more_energy_per_batch(self, reports):
        """The server is faster but runs at ~15x the board power."""
        server = report_energy(reports["2080ti"])
        nano = report_energy(reports["nano"])
        # Energy-delay product still favors the server (it is much faster).
        assert (energy_delay_product(reports["2080ti"])
                < energy_delay_product(reports["nano"]))
        # Dynamic (compute) energy is device-dependent through pJ/FLOP.
        assert server.compute != nano.compute

    def test_stage_energy_sums_to_device_dynamic_plus_idle(self, reports):
        report = reports["2080ti"]
        per_stage = stage_energy(report)
        assert set(per_stage) == {"encoder", "fusion", "head"}
        total = report_energy(report)
        assert sum(per_stage.values()) == pytest.approx(total.device_total, rel=1e-6)

    def test_encoder_stage_costs_most(self, reports):
        per_stage = stage_energy(reports["2080ti"])
        assert per_stage["encoder"] > per_stage["fusion"]
        assert per_stage["encoder"] > per_stage["head"]

    def test_modality_energy(self, reports):
        per_modality = modality_energy(reports["2080ti"])
        assert set(per_modality) == {"image", "audio"}
        assert per_modality["image"] > per_modality["audio"]

    def test_renamed_device_prices_like_its_source(self, reports):
        """Coefficients are spec fields, not a table keyed by device name."""
        renamed, source = reports["renamed"], reports["2080ti"]
        assert report_energy(renamed) == report_energy(source)
        assert stage_energy(renamed) == stage_energy(source)
        assert modality_energy(renamed) == modality_energy(source)
        assert energy_delay_product(renamed) == energy_delay_product(source)
