"""Figure 15: execution stall breakdown and resource usage on the edge.

Paper shapes asserted: execution-dependency and instruction-fetch stalls
grow dramatically on the Jetson Nano while memory/cache-dependency stalls
dominate on the 2080Ti; on the Nano, DRAM utilization stays high in every
stage and the fusion stage's occupancy no longer trails the encoder's.
"""

from benchmarks.conftest import print_table
from repro.core.analysis.edge import (
    dominant_stalls,
    edge_resource_study,
    edge_stall_study,
)
from repro.hw.vectorized import STALL_REASONS


def test_fig15ab_stall_breakdowns(benchmark):
    profiles = benchmark.pedantic(lambda: edge_stall_study(), rounds=1, iterations=1)

    rows = [[p.device, p.config] + [f"{p.stalls[r]:.0%}" for r in STALL_REASONS]
            for p in profiles]
    print_table("Figure 15a/b: stall breakdown (uni0=audio, uni1=image)",
                ["device", "config", *STALL_REASONS], rows)

    by_key = {(p.device, p.config): p.stalls for p in profiles}

    # Breakdown rows are distributions.
    for stalls in by_key.values():
        assert abs(sum(stalls.values()) - 1.0) < 1e-9

    # The paper's stall shift.
    assert dominant_stalls(profiles, "nano")[0] == "Exec"
    assert dominant_stalls(profiles, "2080ti")[0] in ("Mem", "Cache")
    for config in ("uni0", "uni1", "slfs"):
        nano, server = by_key[("nano", config)], by_key[("2080ti", config)]
        assert nano["Exec"] + nano["Inst"] > server["Exec"] + server["Inst"]
        assert server["Mem"] + server["Cache"] > nano["Mem"] + nano["Cache"]


def test_fig15c_nano_resource_usage(benchmark):
    counters = benchmark.pedantic(lambda: edge_resource_study(), rounds=1, iterations=1)

    rows = [[stage, round(c["dram_utilization"], 3), round(c["achieved_occupancy"], 3),
             round(c["ipc"], 3), round(c["gld_efficiency"], 3),
             round(c["gst_efficiency"], 3)]
            for stage, c in counters.items()]
    print_table("Figure 15c: slfs per-stage resource usage on Jetson Nano",
                ["stage", "DRAM_UTI", "GPU_OCP", "IPC", "GLD_EFF", "GST_EFF"], rows)

    # DRAM utilization is almost always kept at a high level on the nano.
    for stage, c in counters.items():
        assert c["dram_utilization"] > 0.3, stage
    # Fusion occupancy catches up with (or exceeds) the encoder's.
    assert (counters["fusion"]["achieved_occupancy"]
            >= counters["encoder"]["achieved_occupancy"] - 1e-6)
