"""Figures 12-13: the batch-size case study (Sec. 5.1).

10,000 inference tasks are scheduled at batch size 40 vs 400 on AV-MNIST,
comparing the multi-modal ``slfs`` implementation against its uni-modal
(image) counterpart. The paper's findings to reproduce:

* larger batches shift the kernel population toward large (>50us)
  kernels, and the multi-modal network uses more large kernels;
* a 10x batch increase reduces latency by much less than 10x, and the
  multi-modal GPU time shrinks by a *smaller* factor than the uni-modal;
* peak memory: the model component is batch-invariant while dataset and
  intermediate grow linearly, with multi-modal carrying a larger
  intermediate share (Figure 13).

Traces come from the shared :class:`~repro.trace.store.TraceStore` and
are captured on the **meta** backend by default: the sweep prices cached
or analytically-propagated event streams, so batch sizes well beyond
physical RAM stay reachable and repeated sweeps are cache hits. Pricing
goes through :func:`repro.profiling.profiler.price_grid` — each variant's
whole batch ladder is priced in one columnar pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.device import DeviceSpec
from repro.hw.memory import MemoryBreakdown
from repro.profiling.profiler import GridCell, price_grid
from repro.trace.store import TraceStore, default_store

VARIANTS = (("slfs", True), ("image", False))  # (name, is_multimodal)


@dataclass
class BatchSizeResult:
    """One (variant, batch size) cell of Figure 12."""

    variant: str
    batch_size: int
    n_batches: int
    kernel_size_distribution: dict[str, float]  # fraction per duration bin
    gpu_time_total: float  # for all `total_tasks` tasks
    inference_time_total: float
    per_batch_gpu_time: float
    per_batch_total_time: float


def _variant_grid(store: TraceStore, workload: str, variant: str,
                  is_multimodal: bool, batch_sizes: tuple[int, ...],
                  device: str | DeviceSpec, seed: int,
                  backend: str | None) -> dict[int, GridCell]:
    """Price one variant's whole batch ladder in a single columnar pass."""
    grid = price_grid(
        [workload], batch_sizes, [device],
        fusion=variant if is_multimodal else None,
        unimodal=None if is_multimodal else variant,
        seed=seed, backend=backend, store=store,
    )
    return {cell.batch_size: cell for cell in grid.values()}


def batch_size_study(
    workload: str = "avmnist",
    batch_sizes: tuple[int, ...] = (40, 400),
    total_tasks: int = 10_000,
    device: str | DeviceSpec = "2080ti",
    seed: int = 0,
    backend: str | None = "meta",
    store: TraceStore | None = None,
) -> list[BatchSizeResult]:
    """Figure 12: kernel population and time vs batch size, uni vs multi."""
    store = store if store is not None else default_store()
    results: list[BatchSizeResult] = []
    for variant, is_multi in VARIANTS:
        cells = _variant_grid(store, workload, variant, is_multi,
                              tuple(batch_sizes), device, seed, backend)
        for batch_size in batch_sizes:
            report = cells[batch_size].report
            n_batches = max(1, total_tasks // batch_size)
            results.append(BatchSizeResult(
                variant=variant,
                batch_size=batch_size,
                n_batches=n_batches,
                kernel_size_distribution=report.kernel_size_distribution(),
                gpu_time_total=report.gpu_time * n_batches,
                inference_time_total=report.total_time * n_batches,
                per_batch_gpu_time=report.gpu_time,
                per_batch_total_time=report.total_time,
            ))
    return results


def peak_memory_study(
    workload: str = "avmnist",
    batch_sizes: tuple[int, ...] = (20, 40, 100, 200, 400),
    device: str | DeviceSpec = "2080ti",
    seed: int = 0,
    backend: str | None = "meta",
    store: TraceStore | None = None,
) -> dict[str, dict[int, MemoryBreakdown]]:
    """Figure 13: peak memory decomposition vs batch size, uni vs multi."""
    store = store if store is not None else default_store()
    out: dict[str, dict[int, MemoryBreakdown]] = {}
    for variant, is_multi in VARIANTS:
        cells = _variant_grid(store, workload, variant, is_multi,
                              tuple(batch_sizes), device, seed, backend)
        out[variant] = {b: cells[b].report.memory for b in batch_sizes}
    return out


def speedup_factor(results: list[BatchSizeResult], variant: str,
                   small: int, large: int) -> float:
    """Inference-time ratio small-batch/large-batch for one variant.

    A value well under ``large/small`` demonstrates the paper's point that
    a 10x batch increase does not buy a 10x latency reduction.
    """
    by_key = {(r.variant, r.batch_size): r for r in results}
    t_small = by_key[(variant, small)].inference_time_total
    t_large = by_key[(variant, large)].inference_time_total
    if t_large <= 0:
        raise ValueError("degenerate large-batch time")
    return t_small / t_large
