"""Per-batch cost models driving the serving simulator.

The simulator never executes a model during a run: batch compute times
come from a cost model priced ahead of time. :class:`ProfiledCostModel`
is the production path — it captures each workload's trace at a few
anchor batch sizes and interpolates, exactly the way the paper's
batch-size case study turns a handful of measurements into a scheduling
decision. It and :class:`TraceCostModel` share one curve per device
(:class:`AnchoredCostModel`): the anchor times plus a dense table over
batch sizes 1..last anchor, built by :func:`interpolate`.

Traces come from the shared :class:`~repro.trace.store.TraceStore`
(content-addressed by workload / fusion / batch / backend / code
version), captured on the **meta** backend by default so cost-model fills
never pay dense numpy math; profiled curves are memoized at module level
on top. ``clear_cost_cache`` and the ``PROFILE_STATS`` work counters are
kept as thin shims over the store so existing callers and tests see the
same observable behavior the private module-level caches used to provide.

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
#   _CURVES[(workload, fusion, seed, backend, anchors, device)]
#       -> (anchor times, dense table)
_CURVES: dict = {}

# Observable work counters, for tests and for cache diagnostics.
# "captures"/"hits" mirror the shared trace store; "pricings" counts
# device-model evaluations.
PROFILE_STATS = {"captures": 0, "pricings": 0, "hits": 0}


def clear_cost_cache() -> None:
    """Drop all memoized traces/prices (mainly for tests).

    Back-compat shim: trace and model memoization now live in the shared
    :func:`~repro.trace.store.default_store`; this clears its in-memory
    tier (the disk tier, when configured, persists by design) along with
    the per-device curve cache.
    """
    default_store().clear()
    _CURVES.clear()


def interpolate(ks: np.ndarray, anchors: np.ndarray,
                times: np.ndarray) -> np.ndarray:
    """Latencies at float64 batch sizes ``ks`` from anchor latencies.

    Piecewise-linear between anchors; affine extrapolation beyond both
    ends. Below the first anchor the curve follows the first segment's
    slope (mirroring the above-last-anchor path) — ``np.interp`` would
    flat-clamp there, silently overpricing small batches under
    non-default anchor sets like ``(8, 32, 128)``. Affine latency keeps a
    positive launch-overhead intercept; should an anomalous (superlinear)
    anchor pair extrapolate through zero, the result is floored at
    proportional cost (``times[0] * k / anchors[0]``), which is always
    positive.
    """
    out = np.interp(ks, anchors, times)
    if anchors.size > 1:
        hi = ks > anchors[-1]
        if hi.any():
            slope = (times[-1] - times[-2]) / (anchors[-1] - anchors[-2])
            out[hi] = times[-1] + slope * (ks[hi] - anchors[-1])
        lo = ks < anchors[0]
        if lo.any():
            slope = (times[1] - times[0]) / (anchors[1] - anchors[0])
            out[lo] = np.maximum(times[0] - slope * (anchors[0] - ks[lo]),
                                 times[0] * ks[lo] / anchors[0])
    return out


def throughput_optimal_batch(cost, device: str, max_batch: int = 512) -> int:
    """Batch size maximizing sustained tasks/second on ``device``.

    The single definition shared by :class:`AnchoredCostModel` and
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


class AnchoredCostModel:
    """``latency(device, batch_size)`` interpolated from priced anchors.

    Subclasses price their anchors (``_price_anchors``). Anchors are
    priced lazily per device on first use; queries between anchors
    interpolate linearly (latency is affine in batch size to good
    approximation under the roofline model: fixed launch overhead plus
    work that scales with the batch), and queries beyond the last anchor
    extrapolate along the final segment's slope.
    """

    def __init__(self, anchors: tuple[int, ...]):
        anchors = tuple(int(k) for k in anchors)
        if not anchors or list(anchors) != sorted(set(anchors)) or anchors[0] < 1:
            raise ValueError(f"anchors must be increasing positive ints, got {anchors}")
        self.anchors = anchors
        self._anchor_arr = np.array(anchors, dtype=np.float64)
        # canonical device -> (anchor times, dense table)
        self._curves: dict[str, tuple[np.ndarray, tuple[float, ...]]] = {}

    def _price_anchors(self, device: str) -> np.ndarray:
        """Seconds per batch at each anchor on one canonical device."""
        raise NotImplementedError

    def _build(self, device: str) -> tuple[np.ndarray, tuple[float, ...]]:
        """Price one device's anchors and interpolate its dense table."""
        times = self._price_anchors(device)
        ks = np.arange(1, self.anchors[-1] + 1, dtype=np.float64)
        return times, tuple(interpolate(ks, self._anchor_arr, times).tolist())

    def _curve(self, device: str) -> tuple[np.ndarray, tuple[float, ...]]:
        canonical = get_device(device).name
        curve = self._curves.get(canonical)
        if curve is None:
            curve = self._curves[canonical] = self._build(canonical)
        return curve

    def anchor_times(self, device: str) -> np.ndarray:
        """Seconds per batch at each of ``anchors`` on ``device``."""
        return self._curve(device)[0]

    def curve(self, device: str) -> tuple[float, ...]:
        """``latency(device, k)`` for ``k = 1..anchors[-1]``, at index
        ``k - 1``, as Python floats."""
        return self._curve(device)[1]

    def latency(self, device: str, batch_size: int) -> float:
        """Seconds to serve one batch of ``batch_size`` on ``device``."""
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        times, table = self._curve(device)
        if batch_size <= len(table) and batch_size == int(batch_size):
            return table[int(batch_size) - 1]
        ks = np.array([batch_size], dtype=np.float64)
        return float(interpolate(ks, self._anchor_arr, times)[0])

    def throughput_optimal_batch(self, device: str, max_batch: int = 512) -> int:
        """Batch size maximizing sustained tasks/second on ``device``."""
        return throughput_optimal_batch(self, device, max_batch)


class ProfiledCostModel(AnchoredCostModel):
    """Memoized ``latency(device, batch_size)`` for one (workload, fusion).

    ``backend`` selects the trace-capture backend; the default ``"meta"``
    propagates shapes analytically and is event-for-event identical to
    eager capture (a tier-1-enforced invariant), so the latency curves are
    bit-equal at a fraction of the fill cost.
    """

    def __init__(self, workload: str, fusion: str | None = None,
                 anchors: tuple[int, ...] = DEFAULT_ANCHORS, seed: int = 0,
                 backend: str = "meta"):
        super().__init__(anchors)
        from repro.nn.backend import validate_backend
        from repro.workloads.registry import get_workload

        self.workload = workload
        # Normalize so fusion=None and the workload's default fusion name
        # share one cache entry (they build the identical model).
        self.fusion = get_workload(workload).default_fusion if fusion is None else fusion
        self.seed = seed
        self.backend = validate_backend(backend)

    def _build(self, device: str) -> tuple[np.ndarray, tuple[float, ...]]:
        key = (self.workload, self.fusion, self.seed, self.backend,
               self.anchors, device)
        if key in _CURVES:
            PROFILE_STATS["hits"] += len(self.anchors)
        else:
            _CURVES[key] = super()._build(device)
        return _CURVES[key]

    def _price_anchors(self, device: str) -> np.ndarray:
        """All anchors in one :func:`~repro.profiling.profiler.price_grid`
        pass: each trace is fetched from the shared store once."""
        from repro.profiling import profiler

        store = default_store()
        captures_before = store.stats["captures"]
        grid = profiler.price_grid(
            [self.workload], self.anchors, [device], fusion=self.fusion,
            seed=self.seed, backend=self.backend, store=store,
        )
        captured = store.stats["captures"] - captures_before
        PROFILE_STATS["captures"] += captured
        PROFILE_STATS["hits"] += len(self.anchors) - captured
        PROFILE_STATS["pricings"] += len(self.anchors)
        return np.array([grid[(self.workload, k, device)].total_time
                         for k in self.anchors], dtype=np.float64)


class TraceCostModel(AnchoredCostModel):
    """``latency(device, batch_size)`` for one already-stored trace.

    The serving adapter for ingested execution graphs: policies and the
    simulator only ever call ``latency``, so any
    :class:`~repro.trace.store.StoredTrace` — regardless of whether a
    model object exists for it — can drive a serving run. Anchor latencies
    come from batch-scaling the stored trace
    (:func:`repro.profiling.profiler.price_batches`, the pricer
    ``mmbench ingest --sweep`` prints).
    """

    def __init__(self, stored, base_batch_size: int = 1,
                 anchors: tuple[int, ...] = DEFAULT_ANCHORS,
                 name: str | None = None):
        super().__init__(anchors)
        if base_batch_size < 1:
            raise ValueError(f"base_batch_size must be positive, got {base_batch_size}")
        self.stored = stored
        self.base_batch_size = int(base_batch_size)
        self.name = name or stored.model_name

    def _price_anchors(self, device: str) -> np.ndarray:
        from repro.profiling.profiler import price_batches

        reports = price_batches(self.stored, self.base_batch_size,
                                self.anchors, [device])
        PROFILE_STATS["pricings"] += len(self.anchors)
        # Floor keeps the interpolated curve strictly positive even
        # for degenerate (e.g. empty) traces.
        return np.array([max(priced.total_time, 1e-12) for (priced,) in reports],
                        dtype=np.float64)
