"""Figures 10-11: the two levels of synchronization overhead.

*Modality synchronization* (Fig. 10): encoders for different modalities
take very different times — the image modality is the straggler (4.09x in
MuJoCo Push) — so a fusion stage that waits on all modalities leaves most
of the concurrent resources idle.

*Data synchronization* (Fig. 11): multi-modal implementations spend a
larger share of wall time in CPU+Runtime work (transfers, intermediate
data preparation, sync calls) than their uni-modal counterparts, keeping
the GPU stalled waiting for data.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.profiling.profiler import price_grid
from repro.workloads.registry import get_workload

MODALITY_TIME_WORKLOADS = ("avmnist", "mmimdb", "mujoco_push")
SYNC_SHARE_WORKLOADS = ("avmnist", "mujoco_push", "medical_seg", "vision_touch")


def modality_time_analysis(
    workloads: tuple[str, ...] = MODALITY_TIME_WORKLOADS,
    batch_size: int = 32,
    device: str = "2080ti",
    seed: int = 0,
    normalize: bool = True,
) -> dict[str, dict[str, float]]:
    """Per-modality encoder time — Figure 10.

    With ``normalize=True`` each workload's fastest modality is 1.0, which
    is how the paper plots it (Norm. Time).
    """
    out: dict[str, dict[str, float]] = {}
    for cell in price_grid(workloads, [batch_size], [device], seed=seed).values():
        times = cell.report.modality_time()
        if normalize and times:
            floor = min(times.values())
            times = {m: t / floor for m, t in times.items()}
        out[cell.workload] = times
    return out


@dataclass
class SyncShare:
    """CPU+Runtime vs GPU split for one implementation — one bar of Fig. 11."""

    workload: str
    variant: str  # "uni" or "multi"
    cpu_runtime_share: float
    gpu_share: float
    cpu_runtime_time: float
    gpu_time: float


def sync_share_analysis(
    workloads: tuple[str, ...] = SYNC_SHARE_WORKLOADS,
    batch_size: int = 32,
    device: str = "2080ti",
    seed: int = 0,
) -> list[SyncShare]:
    """CPU+Runtime/GPU proportions for uni- vs multi-modal — Figure 11.

    The uni-modal baseline uses each workload's heaviest (first image-like)
    modality, matching the paper's uni implementations.
    """
    rows: list[SyncShare] = []
    for name in workloads:
        info = get_workload(name)
        # Uni-modal: prefer an image-like modality (the paper's choice).
        uni_modality = next(
            (m for m in info.modalities if "image" in m or m in ("t1", "flair")),
            info.modalities[0],
        )
        for variant, unimodal in (("uni", uni_modality), ("multi", None)):
            [cell] = price_grid([name], [batch_size], [device], unimodal=unimodal,
                                seed=seed).values()
            share = cell.report.cpu_runtime_share
            rows.append(SyncShare(
                workload=name, variant=variant,
                cpu_runtime_share=share, gpu_share=1.0 - share,
                cpu_runtime_time=cell.report.host_time,
                gpu_time=cell.report.gpu_time,
            ))
    return rows
