"""Figures 14-15: the edge-migration case study (Sec. 5.2).

AV-MNIST inference is compared across the GPU server (RTX 2080Ti), Jetson
Orin and Jetson Nano at batch sizes 40-320. The paper's findings:

* the Jetson Nano needs ~6.5x the server's time; Orin behaves like a small
  server;
* server latency falls monotonically with batch size, but the Nano's
  *rises again* at batch 320 because "certain resources are used up";
* the multi/uni time ratio is higher on the edge boards than on the
  server (the server has idle resources to absorb the extra modality);
* stall attribution shifts: Mem/Cache-dependency stalls dominate on the
  server, Exec-dependency and instruction-fetch stalls dominate on the
  Nano; on the Nano the fusion stage's occupancy overtakes the encoder's.

Scale note: our workload shapes are reduced so a single-core numpy
substrate can execute them; at those sizes no batch fits 4 GB badly enough
to thrash. ``EDGE_SCALE`` extrapolates the traced work descriptors to the
paper's full-scale AV-MNIST (112x112 spectrograms, full-width MLP heads —
the ``slfs`` variant has 31x the baseline parameters), which restores the
capacity effect. The scaling is exact under the analytical device model
(see :func:`repro.trace.timeline.scale_trace`).

Captures route through the shared :class:`~repro.trace.store.TraceStore`
on the **meta** backend by default: one cached device-independent trace
per (variant, batch) feeds every device's pricing, and the scaled-up
configurations never materialize full-scale activations. Pricing goes
through :func:`repro.profiling.profiler.price_grid`, which scales the
columnar trace once and prices it on all devices in a single broadcasted
sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.device import DeviceSpec
from repro.hw.vectorized import STALL_REASONS
from repro.profiling.profiler import grid_devices, price_grid
from repro.trace.store import TraceStore, default_store

#: Work multiplier from our reduced AV-MNIST to the paper's full-scale one.
#: Calibrated so the slfs variant at batch 320 approaches the Jetson Nano's
#: usable unified-memory capacity (as in Figure 14) while batch 160 does not.
EDGE_SCALE = 72.0

DEVICES = ("nano", "orin", "2080ti")
BATCH_SIZES = (40, 80, 160, 320)

_VARIANTS = (("uni", None, "image"), ("slfs", "slfs", None))  # (label, fusion, unimodal)


@dataclass
class EdgeLatency:
    """One (device, variant, batch) cell of Figure 14; ``device`` is the
    grid key (a name as passed, or a spec's ``name``)."""

    device: str
    variant: str  # "uni" (image) or "slfs"
    batch_size: int
    inference_time: float  # for `total_tasks` tasks
    memory_pressure: float
    slowdown: float


def edge_latency_study(
    workload: str = "avmnist",
    batch_sizes: tuple[int, ...] = BATCH_SIZES,
    devices: tuple[str | DeviceSpec, ...] = DEVICES,
    total_tasks: int = 10_000,
    scale: float = EDGE_SCALE,
    seed: int = 0,
    backend: str | None = "meta",
    store: TraceStore | None = None,
) -> list[EdgeLatency]:
    """Figure 14: inference time vs batch size per device, uni vs slfs."""
    store = store if store is not None else default_store()
    results: list[EdgeLatency] = []
    for variant_name, fusion, unimodal in _VARIANTS:
        # Model/dataset bytes scale together with the traced work; each
        # (variant, batch) trace is priced on every device in one pass.
        grid = price_grid([workload], batch_sizes, devices,
                          fusion=fusion, unimodal=unimodal, seed=seed,
                          backend=backend, scale=scale, store=store)
        for (_, batch_size, device), cell in grid.items():
            report = cell.report
            results.append(EdgeLatency(
                device=device,
                variant=variant_name,
                batch_size=batch_size,
                inference_time=report.total_time * max(1, total_tasks // batch_size),
                memory_pressure=report.memory_pressure,
                slowdown=report.slowdown,
            ))
    return results


def multimodal_ratio(results: list[EdgeLatency], batch_size: int) -> dict[str, float]:
    """slfs/uni inference-time ratio per device at one batch size, in the
    order the devices first appear in ``results``."""
    by_key = {(r.device, r.variant, r.batch_size): r for r in results}
    out = {}
    for device in dict.fromkeys(r.device for r in results):
        uni = by_key.get((device, "uni", batch_size))
        slfs = by_key.get((device, "slfs", batch_size))
        if uni and slfs and uni.inference_time > 0:
            out[device] = slfs.inference_time / uni.inference_time
    return out


@dataclass
class StallProfile:
    """One bar of Figure 15a/b: a stall breakdown for one configuration;
    ``device`` is the grid key, as in :class:`EdgeLatency`."""

    device: str
    config: str  # "uni0" (audio), "uni1" (image), "slfs", or a stage name
    stalls: dict[str, float]


def edge_stall_study(
    workload: str = "avmnist",
    devices: tuple[str | DeviceSpec, ...] = ("nano", "2080ti"),
    batch_size: int = 40,
    scale: float = EDGE_SCALE,
    seed: int = 0,
    backend: str | None = "meta",
    store: TraceStore | None = None,
) -> list[StallProfile]:
    """Figure 15a/b: stall breakdowns on the Nano vs the server.

    Configurations mirror the paper: ``uni0`` = audio-only, ``uni1`` =
    image-only, ``slfs`` = the multi-modal variant, plus slfs's per-stage
    breakdowns (encoder / fusion / head).
    """
    store = store if store is not None else default_store()
    configs = {
        "uni0": (None, "audio"),
        "uni1": (None, "image"),
        "slfs": ("slfs", None),
    }
    grids = {
        config_name: price_grid([workload], [batch_size], devices,
                                fusion=fusion, unimodal=unimodal, seed=seed,
                                backend=backend, scale=scale, store=store)
        for config_name, (fusion, unimodal) in configs.items()
    }
    profiles: list[StallProfile] = []
    for device in grid_devices(devices):
        for config_name in configs:
            report = grids[config_name][(workload, batch_size, device)].report
            profiles.append(StallProfile(
                device=device, config=config_name, stalls=report.overall_stalls(),
            ))
            if config_name == "slfs":
                for stage, stalls in report.stage_stalls().items():
                    profiles.append(StallProfile(device=device, config=stage, stalls=stalls))
    return profiles


def edge_resource_study(
    workload: str = "avmnist",
    device: str | DeviceSpec = "nano",
    batch_size: int = 40,
    scale: float = EDGE_SCALE,
    seed: int = 0,
    backend: str | None = "meta",
    store: TraceStore | None = None,
) -> dict[str, dict[str, float]]:
    """Figure 15c: per-stage resource usage of slfs on the Jetson Nano."""
    store = store if store is not None else default_store()
    [cell] = price_grid([workload], [batch_size], [device], fusion="slfs",
                        seed=seed, backend=backend, scale=scale, store=store).values()
    return cell.report.stage_counters()


def dominant_stalls(profiles: list[StallProfile], device: str, config: str = "slfs",
                    top: int = 2) -> list[str]:
    """The ``top`` stall reasons for one configuration on one device."""
    for p in profiles:
        if p.device == device and p.config == config:
            ranked = sorted(STALL_REASONS, key=lambda r: -p.stalls.get(r, 0.0))
            return ranked[:top]
    raise KeyError(f"no stall profile for device={device!r} config={config!r}")
