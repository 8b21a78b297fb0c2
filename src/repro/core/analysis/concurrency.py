"""Concurrent-modality execution analysis (the Sec. 4.3.3 idle-resource claim).

The paper observes that if the encoder sub-networks were executed
concurrently — one stream per modality, each holding a share of the
device — the modality imbalance would leave most of those resources idle:
"If executed concurrently, nearly 75% of the resources assigned to the
application will stay idle for more [than] 77% of the entire encoder
execution" (MuJoCo Push, whose image encoder is a 4.09x straggler).

:func:`analyze_concurrency` derives those quantities from a *simulated
schedule*: :mod:`repro.hw.streams` executes the one-stream-per-modality
timeline on an equal-share device partition, and the idle-resource
geometry is read off the per-stream busy/idle windows. The closed-form
max/sum shortcut the module originally used is kept as
:func:`analytic_concurrency`; a tier-1 test pins the two to each other on
every multi-modal workload.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.engine import ExecutionReport


@dataclass(frozen=True)
class ConcurrencyAnalysis:
    """Idle-resource geometry of a concurrent per-modality schedule."""

    modality_times: dict[str, float]
    straggler: str
    straggler_ratio: float  # straggler time / fastest modality time
    serial_encoder_time: float  # sum of modality times (single stream)
    concurrent_encoder_time: float  # max of modality times (one stream each)
    concurrency_speedup: float  # serial / concurrent
    # With one equal resource share per modality: fraction of the
    # (resources x encoder-window) area that sits idle.
    idle_resource_fraction: float
    # Fraction of the encoder window for which the non-straggler streams
    # (covering (M-1)/M of the resources) have already finished.
    idle_window_fraction: float
    idle_stream_share: float  # (M-1)/M — the "75% of resources" in the paper


def analytic_concurrency(times: dict[str, float]) -> ConcurrencyAnalysis:
    """The closed-form max/sum shortcut over per-modality encoder times.

    Kept as the reference the schedule-derived :func:`analyze_concurrency`
    is differentially tested against.
    """
    if len(times) < 2:
        raise ValueError("concurrency analysis needs a multi-modal report")
    straggler = max(times, key=times.get)
    t_max = times[straggler]
    t_min = min(times.values())
    serial = sum(times.values())
    m = len(times)

    # Idle area: each of the m equal resource shares is busy for its
    # modality's time and idle until the straggler finishes.
    idle_area = sum(t_max - t for t in times.values())
    idle_fraction = idle_area / (m * t_max) if t_max > 0 else 0.0

    # The paper's phrasing: the other (m-1) streams go idle once their own
    # work finishes; on average that happens after mean(non-straggler time).
    others = [t for name, t in times.items() if name != straggler]
    mean_other = sum(others) / len(others)
    idle_window = 1.0 - (mean_other / t_max) if t_max > 0 else 0.0

    return ConcurrencyAnalysis(
        modality_times=times,
        straggler=straggler,
        straggler_ratio=t_max / t_min if t_min > 0 else float("inf"),
        serial_encoder_time=serial,
        concurrent_encoder_time=t_max,
        concurrency_speedup=serial / t_max if t_max > 0 else 1.0,
        idle_resource_fraction=idle_fraction,
        idle_window_fraction=idle_window,
        idle_stream_share=(m - 1) / m,
    )


def analyze_concurrency(report: ExecutionReport) -> ConcurrencyAnalysis:
    """Analyze the encoder stage's concurrent-execution geometry.

    Simulates the one-stream-per-modality schedule on an equal-share
    partition of the report's device
    (:meth:`~repro.hw.engine.ExecutionReport.stream_schedule`) and derives
    every quantity from the schedule's busy/idle windows. Absolute times
    are reported at native (full-device) speed — the idle *fractions* are
    share-scale-invariant under equal shares, which is exactly why the
    paper can quote them without fixing a partitioning.
    """
    if len(report.modality_time()) < 2:
        raise ValueError("concurrency analysis needs a multi-modal report")
    schedule = report.stream_schedule()
    native = schedule.native_times()
    straggler = schedule.straggler
    t_max = native[straggler]
    t_min = min(native.values())
    m = len(native)
    return ConcurrencyAnalysis(
        modality_times=native,
        straggler=straggler,
        straggler_ratio=t_max / t_min if t_min > 0 else float("inf"),
        serial_encoder_time=schedule.serial_time(),
        concurrent_encoder_time=t_max,
        concurrency_speedup=schedule.concurrency_speedup(),
        idle_resource_fraction=schedule.idle_resource_fraction(),
        idle_window_fraction=schedule.idle_window_fraction(),
        idle_stream_share=(m - 1) / m,
    )


def concurrency_study(
    workloads: tuple[str, ...] = ("avmnist", "mmimdb", "mujoco_push", "vision_touch"),
    batch_size: int = 64,
    device: str = "2080ti",
    seed: int = 0,
) -> dict[str, ConcurrencyAnalysis]:
    """Run the idle-resource analysis across workloads."""
    from repro.profiling.profiler import MMBenchProfiler

    profiler = MMBenchProfiler(device)
    return {
        name: analyze_concurrency(
            profiler.profile_workload(name, batch_size=batch_size, seed=seed).report)
        for name in workloads
    }
