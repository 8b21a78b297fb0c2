"""Dynamic batching policies.

A policy answers one question, every time a device goes idle while
requests are queued: *dispatch how many now — or hold for a bigger
batch?* The three policies span the deployment spectrum the paper's
Sec. 5.1 case study opens:

* :class:`FixedBatchPolicy` — the paper's setting: serve up to a fixed
  cap immediately, never hold. Simple, but the cap is a static guess.
* :class:`TimeoutBatchPolicy` — classic serving-system batching: hold
  until the batch fills or the oldest request has waited ``timeout``.
* :class:`AdaptiveSLOPolicy` — cost-model-driven: pick the largest batch
  whose predicted compute time still lands the oldest queued request
  inside its latency SLO; when the SLO is already blown, switch to the
  throughput-optimal batch size to drain the queue fastest.
"""

from __future__ import annotations

import math
import weakref

from repro.serving.request import is_finite_number


def _wake_after(base: float, delta: float) -> float:
    """``base + delta``, rounded up so ``wake - base >= delta`` holds in floats.

    Wakeup times must satisfy the very comparison ``decide`` will make at
    the wakeup (``now - base >= delta``), or the event fires, the policy
    still holds, and the simulation livelocks on rounding.
    """
    wake = base + delta
    while wake - base < delta:
        wake = math.nextafter(wake, math.inf)
    return wake


class BatchingPolicy:
    """Decides batch sizes; subclasses override :meth:`decide`."""

    name: str = "policy"

    def decide(self, now: float, queue_len: int, oldest_wait: float,
               device: str, cost) -> int | None:
        """Batch size to dispatch on ``device`` now, or ``None`` to hold.

        Called only when ``queue_len > 0`` and ``device`` is idle. ``cost``
        is a cost model with ``latency(device, batch_size)``.
        """
        raise NotImplementedError

    def next_wakeup(self, now: float, oldest_arrival: float) -> float | None:
        """When to re-evaluate after a hold (``None`` = next arrival/finish)."""
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class FixedBatchPolicy(BatchingPolicy):
    """Serve ``min(queue, batch_size)`` immediately whenever a device frees."""

    def __init__(self, batch_size: int):
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.batch_size = batch_size
        self.name = f"fixed({batch_size})"

    def decide(self, now, queue_len, oldest_wait, device, cost):
        return min(queue_len, self.batch_size)


class TimeoutBatchPolicy(BatchingPolicy):
    """Hold until the batch fills or the oldest request waited ``timeout``."""

    def __init__(self, batch_size: int, timeout: float):
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if not is_finite_number(timeout) or timeout < 0:
            raise ValueError(f"timeout must be non-negative and finite, "
                             f"got {timeout!r}")
        self.batch_size = batch_size
        self.timeout = timeout
        self.name = f"timeout({batch_size},{timeout:g}s)"

    def decide(self, now, queue_len, oldest_wait, device, cost):
        if queue_len >= self.batch_size or oldest_wait >= self.timeout:
            return min(queue_len, self.batch_size)
        return None

    def next_wakeup(self, now, oldest_arrival):
        return _wake_after(oldest_arrival, self.timeout)


class AdaptiveSLOPolicy(BatchingPolicy):
    """Largest batch whose predicted compute keeps the oldest request in SLO.

    With headroom ``safety * slo - oldest_wait`` remaining for the oldest
    queued request, find the largest ``k <= max_batch`` with
    ``cost.latency(device, k) <= headroom`` (latency is monotone in batch
    size). A cost adapter with ``largest_within`` (the serving engine's)
    answers that with one bisection of its dense table; otherwise — a
    callable cost model, a curve that is not non-decreasing, or a cap past
    the last anchor — a binary search probes ``latency``. On a
    non-decreasing curve both find the same ``k``.

    When the offered device cannot serve even a single request within the
    remaining headroom, the oldest request is *held* — a faster device in
    the pool may still land it — until its budget is actually spent; from
    then on the policy stops protecting it and dispatches the
    throughput-optimal batch size, which drains the backlog fastest and
    restores headroom for the requests behind it.
    """

    def __init__(self, slo: float, max_batch: int = 512, safety: float = 0.8):
        if not is_finite_number(slo) or slo <= 0:
            raise ValueError(f"slo must be positive and finite, got {slo!r}")
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        if not 0 < safety <= 1:
            raise ValueError(f"safety must be in (0, 1], got {safety}")
        self.slo = slo
        self.max_batch = max_batch
        self.safety = safety
        self.name = f"adaptive(slo={slo:g}s)"
        # Memoized drain batch per (cost model, device). Keyed weakly by
        # the *underlying* cost model — the engine hands ``decide`` a
        # per-run group wrapper, so keying on the argument itself would
        # rebuild the memo every simulation — while still dying with the
        # model so a reused policy never applies a stale curve's optimum.
        self._drain_batch: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def decide(self, now, queue_len, oldest_wait, device, cost):
        headroom = self.safety * self.slo - oldest_wait
        if headroom >= cost.latency(device, 1):
            return min(queue_len, self._largest_within(device, cost, headroom))
        if oldest_wait >= self.safety * self.slo:
            # Truly blown: stop protecting the oldest and drain fastest to
            # restore headroom for the requests behind it.
            return min(queue_len, self._throughput_optimal(device, cost))
        # This device cannot land the oldest request inside the SLO, but the
        # budget isn't spent yet — hold, so a faster device (or the deadline
        # wakeup below) takes it rather than a guaranteed miss.
        return None

    def next_wakeup(self, now, oldest_arrival):
        # Wake exactly when the oldest request's budget is spent.
        return _wake_after(oldest_arrival, self.safety * self.slo)

    def _largest_within(self, device: str, cost, budget: float) -> int:
        """Largest k in [1, max_batch] with latency(k) <= budget."""
        search = getattr(cost, "largest_within", None)
        if search is not None:
            k = search(device, self.max_batch, budget)
            if k is not None:
                return k
        lo, hi = 1, self.max_batch
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if cost.latency(device, mid) <= budget:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def _throughput_optimal(self, device: str, cost) -> int:
        from repro.serving.costmodel import throughput_optimal_batch

        # Unwrap per-run group adapters (they expose `underlying` and map
        # group labels to device model names) so the memo keys on the cost
        # model and the device — both stable across simulations.
        base = getattr(cost, "underlying", cost)
        key = cost.device_name(device) if hasattr(cost, "device_name") else device
        per_cost = self._drain_batch.setdefault(base, {})
        if key not in per_cost:
            per_cost[key] = throughput_optimal_batch(cost, device, self.max_batch)
        return per_cost[key]


POLICY_NAMES = ("fixed", "timeout", "adaptive")


def make_policy(name: str, *, batch_size: int = 40, timeout: float = 2e-3,
                slo: float = 50e-3, max_batch: int = 512) -> BatchingPolicy:
    """Build a policy from its CLI name (``fixed``/``timeout``/``adaptive``)."""
    if name == "fixed":
        return FixedBatchPolicy(batch_size)
    if name == "timeout":
        return TimeoutBatchPolicy(batch_size, timeout)
    if name == "adaptive":
        return AdaptiveSLOPolicy(slo, max_batch=max_batch)
    raise KeyError(f"unknown policy {name!r}; available: {POLICY_NAMES}")
