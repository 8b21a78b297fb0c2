"""Per-batch cost models driving the serving simulator.

The simulator never executes a model during a run: batch compute times
come from a cost model priced ahead of time. :class:`ProfiledCostModel`
is the production path — it captures each workload's trace at a few
anchor batch sizes and interpolates, exactly the way the paper's
batch-size case study turns a handful of measurements into a scheduling
decision.

Traces come from the shared :class:`~repro.trace.store.TraceStore`
(content-addressed by workload / fusion / batch / backend / code
version), captured on the **meta** backend by default so cost-model fills
never pay dense numpy math; prices per device are memoized at module
level on top. ``clear_cost_cache`` and the ``PROFILE_STATS`` work
counters are kept as thin shims over the store so existing callers and
tests see the same observable behavior the private module-level caches
used to provide.

:class:`CallableCostModel` adapts a plain ``batch_time(k)`` closure, for
analytic (e.g. affine) service times.
"""

from __future__ import annotations

import numpy as np

from repro.hw.device import get_device
from repro.trace.store import default_store

DEFAULT_ANCHORS: tuple[int, ...] = (1, 8, 32, 128, 512)

# Device-dependent quantities stay module-level (the trace store is
# device-independent by design):
#   _TIME_CACHE[(workload, fusion, seed, backend, device, k)] -> seconds
_TIME_CACHE: dict = {}

# Observable work counters, for tests and for cache diagnostics.
# "captures"/"hits" mirror the shared trace store; "pricings" counts
# device-model evaluations.
PROFILE_STATS = {"captures": 0, "pricings": 0, "hits": 0}


def clear_cost_cache() -> None:
    """Drop all memoized traces/prices (mainly for tests).

    Back-compat shim: trace and model memoization now live in the shared
    :func:`~repro.trace.store.default_store`; this clears its in-memory
    tier (the disk tier, when configured, persists by design) along with
    the per-device price caches.
    """
    default_store().clear()
    _TIME_CACHE.clear()


def _interp_affine(k: float, anchors: np.ndarray, times: np.ndarray) -> float:
    """Piecewise-linear between anchors; affine extrapolation beyond both ends.

    Below the first anchor the curve follows the first segment's slope
    (mirroring the above-last-anchor path) — ``np.interp`` would flat-clamp
    there, silently overpricing small batches under non-default anchor sets
    like ``(8, 32, 128)``. Affine latency keeps a positive launch-overhead
    intercept; should an anomalous (superlinear) anchor pair extrapolate
    through zero, the result is floored at proportional cost
    (``times[0] * k / anchors[0]``), which is always positive.
    """
    if len(anchors) > 1:
        if k > anchors[-1]:
            slope = (times[-1] - times[-2]) / (anchors[-1] - anchors[-2])
            return float(times[-1] + slope * (k - anchors[-1]))
        if k < anchors[0]:
            slope = (times[1] - times[0]) / (anchors[1] - anchors[0])
            value = times[0] - slope * (anchors[0] - k)
            return float(max(value, times[0] * k / anchors[0]))
    return float(np.interp(k, anchors, times))


def throughput_optimal_batch(cost, device: str, max_batch: int = 512) -> int:
    """Batch size maximizing sustained tasks/second on ``device``.

    The single definition shared by :class:`ProfiledCostModel` and
    :class:`~repro.serving.policies.AdaptiveSLOPolicy`'s drain mode.
    """
    ladder = [k for k in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
              if k <= max_batch]
    if max_batch not in ladder:
        ladder.append(max_batch)
    return max(ladder, key=lambda k: k / cost.latency(device, k))


class CallableCostModel:
    """Adapts ``batch_time(k) -> seconds`` into the cost-model interface.

    Device-oblivious: every device sees the same curve — a single-server
    study is ``simulate(CallableCostModel(f), FixedBatchPolicy(b),
    devices=("server",))``.
    """

    def __init__(self, batch_time):
        self._batch_time = batch_time

    def latency(self, device: str, batch_size: int) -> float:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        duration = float(self._batch_time(batch_size))
        if duration <= 0:
            raise ValueError("batch_time must return a positive duration")
        return duration


class ProfiledCostModel:
    """Memoized ``latency(device, batch_size)`` for one (workload, fusion).

    Anchors are profiled lazily per device on first use; queries between
    anchors interpolate linearly (latency is affine in batch size to good
    approximation under the roofline model: fixed launch overhead plus
    work that scales with the batch), and queries beyond the last anchor
    extrapolate along the final segment's slope.

    ``backend`` selects the trace-capture backend; the default ``"meta"``
    propagates shapes analytically and is event-for-event identical to
    eager capture (a tier-1-enforced invariant), so the latency curves are
    bit-equal at a fraction of the fill cost.
    """

    def __init__(self, workload: str, fusion: str | None = None,
                 anchors: tuple[int, ...] = DEFAULT_ANCHORS, seed: int = 0,
                 backend: str = "meta"):
        anchors = tuple(int(k) for k in anchors)
        if not anchors or list(anchors) != sorted(set(anchors)) or anchors[0] < 1:
            raise ValueError(f"anchors must be increasing positive ints, got {anchors}")
        from repro.nn.backend import validate_backend
        from repro.workloads.registry import get_workload

        self.workload = workload
        # Normalize so fusion=None and the workload's default fusion name
        # share one cache entry (they build the identical model).
        self.fusion = get_workload(workload).default_fusion if fusion is None else fusion
        self.anchors = anchors
        self.seed = seed
        self.backend = validate_backend(backend)
        self._anchor_arr = np.array(self.anchors, dtype=np.float64)
        self._anchor_times: dict[str, np.ndarray] = {}  # canonical device -> times

    # -- profiling (store-backed, grid-priced) -----------------------------------

    def _time_key(self, device: str, k: int) -> tuple:
        return (self.workload, self.fusion, self.seed, self.backend, device, k)

    def _anchor_curve(self, device: str) -> np.ndarray:
        """Anchor latencies for one device, priced in a single grid pass.

        Anchors already in the module-level price cache are hits; the
        missing ones go through :func:`repro.profiling.profiler.price_grid`
        together, so each uncached trace is fetched from the shared store
        once and priced vectorized.
        """
        canonical = get_device(device).name
        if canonical in self._anchor_times:
            return self._anchor_times[canonical]

        times = np.empty(len(self.anchors), dtype=np.float64)
        missing: list[tuple[int, int]] = []  # (position, anchor batch size)
        for i, k in enumerate(self.anchors):
            cached = _TIME_CACHE.get(self._time_key(canonical, k))
            if cached is not None:
                PROFILE_STATS["hits"] += 1
                times[i] = cached
            else:
                missing.append((i, k))

        if missing:
            from repro.profiling.profiler import price_grid

            store = default_store()
            captures_before = store.stats["captures"]
            grid = price_grid(
                [self.workload], [k for _, k in missing], [canonical],
                fusion=self.fusion, seed=self.seed, backend=self.backend,
                store=store,
            )
            captured = store.stats["captures"] - captures_before
            PROFILE_STATS["captures"] += captured
            PROFILE_STATS["hits"] += len(missing) - captured
            PROFILE_STATS["pricings"] += len(missing)
            for i, k in missing:
                t = grid[(self.workload, k, canonical)].total_time
                _TIME_CACHE[self._time_key(canonical, k)] = t
                times[i] = t

        self._anchor_times[canonical] = times
        return times

    # -- queries ----------------------------------------------------------------

    def latency(self, device: str, batch_size: int) -> float:
        """Seconds to serve one batch of ``batch_size`` on ``device``."""
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        return _interp_affine(batch_size, self._anchor_arr, self._anchor_curve(device))

    def throughput_optimal_batch(self, device: str, max_batch: int = 512) -> int:
        """Batch size maximizing sustained tasks/second on ``device``."""
        return throughput_optimal_batch(self, device, max_batch)


class TraceCostModel:
    """``latency(device, batch_size)`` for one already-stored trace.

    The serving adapter for ingested execution graphs: policies and the
    simulator only ever call ``latency``, so any
    :class:`~repro.trace.store.StoredTrace` — regardless of whether a
    model object exists for it — can drive a serving run. Anchor latencies
    are produced by *batch-scaling* the stored trace
    (:func:`repro.trace.timeline.scale_trace` with factor ``k / base``):
    per-kernel work scales with the batch while the parameter footprint
    stays fixed and only the input footprint scales, which is the batch
    semantics (``price_grid``'s ``scale`` path scales both because it
    models scaling the *model*, not the batch).
    """

    def __init__(self, stored, base_batch_size: int = 1,
                 anchors: tuple[int, ...] = DEFAULT_ANCHORS,
                 name: str | None = None):
        anchors = tuple(int(k) for k in anchors)
        if not anchors or list(anchors) != sorted(set(anchors)) or anchors[0] < 1:
            raise ValueError(f"anchors must be increasing positive ints, got {anchors}")
        if base_batch_size < 1:
            raise ValueError(f"base_batch_size must be positive, got {base_batch_size}")
        self.stored = stored
        self.base_batch_size = int(base_batch_size)
        self.anchors = anchors
        self.name = name or stored.model_name
        self._anchor_arr = np.array(anchors, dtype=np.float64)
        self._anchor_times: dict[str, np.ndarray] = {}  # canonical device -> times

    def _anchor_curve(self, device: str) -> np.ndarray:
        canonical = get_device(device).name
        curve = self._anchor_times.get(canonical)
        if curve is not None:
            return curve
        from repro.hw.engine import ExecutionEngine
        from repro.trace.timeline import scale_trace

        engine = ExecutionEngine(get_device(canonical))
        times = np.empty(len(self.anchors), dtype=np.float64)
        for i, k in enumerate(self.anchors):
            factor = k / self.base_batch_size
            trace = (self.stored.trace if factor == 1.0
                     else scale_trace(self.stored.trace, factor))
            report = engine.run(
                trace,
                model_bytes=self.stored.parameter_bytes,
                input_bytes=self.stored.input_bytes * factor,
            )
            PROFILE_STATS["pricings"] += 1
            # Floor keeps the interpolated curve strictly positive even
            # for degenerate (e.g. empty) traces.
            times[i] = max(report.total_time, 1e-12)
        self._anchor_times[canonical] = times
        return times

    def latency(self, device: str, batch_size: int) -> float:
        """Seconds to serve one batch of ``batch_size`` on ``device``."""
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        return _interp_affine(batch_size, self._anchor_arr, self._anchor_curve(device))

    def throughput_optimal_batch(self, device: str, max_batch: int = 512) -> int:
        return throughput_optimal_batch(self, device, max_batch)
