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
geometry is read off the per-stream busy/idle windows. A tier-1 test pins
the result to the closed-form max/sum shortcut over per-modality encoder
times on every multi-modal workload.
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
