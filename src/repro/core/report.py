"""Full per-workload characterization reports.

MMBench promises "comprehensive profiling tools and insights at the
architecture and system levels" beyond raw scoreboards (Sec. 1). This
module rolls every hardware-level analysis into one markdown document for
a single workload: the three-stage profile, kernel mix, modality balance,
synchronization split, memory decomposition, energy and a cross-device
summary — the report a systems engineer would attach to a design review.
"""

from __future__ import annotations

import io

from repro.hw.device import DeviceSpec
from repro.hw.energy import report_energy, stage_energy
from repro.hw.vectorized import STALL_REASONS
from repro.profiling.profiler import price_grid
from repro.profiling.report import format_bytes, format_seconds
from repro.workloads.registry import get_workload


def _md_table(headers: list[str], rows: list[list]) -> str:
    out = io.StringIO()
    out.write("| " + " | ".join(headers) + " |\n")
    out.write("|" + "|".join("---" for _ in headers) + "|\n")
    for row in rows:
        out.write("| " + " | ".join(str(c) for c in row) + " |\n")
    return out.getvalue()


def characterization_report(
    workload: str,
    fusion: str | None = None,
    batch_size: int = 32,
    devices: tuple[str | DeviceSpec, ...] = ("2080ti", "orin", "nano"),
    seed: int = 0,
    backend: str | None = "meta",
) -> str:
    """Render a markdown characterization report for one workload.

    Everything comes from the shared store's entry (meta backend by
    default) and one broadcast pricing of it across ``devices``, so a warm
    hit renders with no model build and no re-trace. Rows name each device
    by its grid key: a name as passed, or a spec's ``name``.
    """
    info = get_workload(workload)
    grid = price_grid([workload], [batch_size], devices, fusion=fusion,
                      seed=seed, backend=backend)
    reports = {device: cell.report for (_, _, device), cell in grid.items()}
    (primary_device, primary), *_ = reports.items()
    stored = next(iter(grid.values())).stored
    trace = stored.trace

    out = io.StringIO()
    out.write(f"# MMBench characterization: {stored.model_name}\n\n")
    out.write(f"Domain: {info.domain} · modalities: {', '.join(info.modalities)} · "
              f"task: {info.task_kind} · batch size: {batch_size}\n\n")

    # Algorithm level.
    out.write("## Algorithm level\n\n")
    out.write(_md_table(
        ["parameters", "parameter bytes", "FLOPs / sample"],
        [[f"{stored.parameters:,}", format_bytes(stored.parameter_bytes),
          f"{trace.total_flops / batch_size:,.0f}"]],
    ))
    out.write("\n")

    # Primary device deep dive.
    out.write(f"## Three-stage profile on {primary_device}\n\n")
    stage_rows = []
    counters = primary.stage_counters()
    energies = stage_energy(primary)
    for stage, t in primary.stage_time().items():
        c = counters[stage]
        stage_rows.append([
            stage, format_seconds(t), f"{c['dram_utilization']:.3f}",
            f"{c['achieved_occupancy']:.3f}", f"{c['ipc']:.2f}",
            f"{energies.get(stage, 0.0) * 1e3:.3f} mJ",
        ])
    out.write(_md_table(
        ["stage", "time", "DRAM util", "occupancy", "IPC", "energy"], stage_rows))
    out.write("\n")

    out.write("### Kernel mix per stage (time share)\n\n")
    mix_rows = []
    for stage in primary.stage_time():
        cats = primary.category_time_breakdown(stage)
        ranked = sorted(cats.items(), key=lambda kv: -kv[1])[:3]
        mix_rows.append([stage, ", ".join(f"{c.value} {v:.0%}" for c, v in ranked)])
    out.write(_md_table(["stage", "dominant kernel categories"], mix_rows))
    out.write("\n")

    if len(stored.modalities) > 1:
        out.write("### Modality balance (encoder stage)\n\n")
        times = primary.modality_time()
        floor = min(times.values()) or 1.0
        out.write(_md_table(
            ["modality", "time", "normalized"],
            [[m, format_seconds(t), f"{t / floor:.2f}x"] for m, t in times.items()],
        ))
        out.write(f"\nStraggler ratio: **{primary.modality_imbalance():.2f}x**\n\n")

    out.write("### Synchronization split\n\n")
    out.write(_md_table(
        ["GPU time", "CPU+Runtime", "CPU+Runtime share", "transfers", "data prep",
         "sync"],
        [[format_seconds(primary.gpu_time), format_seconds(primary.host_time),
          f"{primary.cpu_runtime_share:.1%}", format_seconds(primary.transfer_time),
          format_seconds(primary.data_prep_time), format_seconds(primary.sync_time)]],
    ))
    out.write("\n")

    out.write("### Peak memory\n\n")
    mem = primary.memory
    out.write(_md_table(
        ["model", "dataset", "intermediate", "total", "pressure"],
        [[format_bytes(mem.model), format_bytes(mem.dataset),
          format_bytes(mem.intermediate), format_bytes(mem.total),
          f"{primary.memory_pressure:.2f}"]],
    ))
    out.write("\n")

    # Cross-device summary.
    out.write("## Cross-device summary\n\n")
    device_rows = []
    for device, rep in reports.items():
        energy = report_energy(rep)
        stalls = rep.overall_stalls()
        dominant = max(STALL_REASONS, key=lambda r: stalls.get(r, 0.0))
        device_rows.append([
            device, format_seconds(rep.total_time),
            f"{rep.cpu_runtime_share:.0%}", f"{energy.total * 1e3:.2f} mJ",
            f"{dominant} ({stalls[dominant]:.0%})",
        ])
    out.write(_md_table(
        ["device", "batch latency", "CPU+Runtime share", "energy", "dominant stall"],
        device_rows))
    return out.getvalue()
