"""The numpy-per-batch fleet engine: the fleet simulator's differential oracle.

``_dense_curve``, ``_GroupCost`` and ``_FleetEngine`` below are the fleet
engine as it stood while every per-batch step was a numpy call: replica
free times in numpy vectors picked by ``argmax``, head arrivals read
from the per-tenant arrays, dense latency tables as numpy arrays, and
each batch's latencies and waits written or summed at dispatch. The
production engine (:class:`repro.serving.fleet._FleetEngine`) moved that
work onto Python scalars and one vectorized pass after the loop; it must
make the same decisions at the same instants. Tests swap this copy in
with ``monkeypatch.setattr(fleet, "_FleetEngine", fleet_oracle._FleetEngine)``
and compare the reports field by field.

Keep this copy frozen: it is a specification, not shared code. Only its
call signature, :meth:`_FleetEngine.fault_stats`,
:meth:`_FleetEngine.batch_histograms` and
:meth:`_FleetEngine.request_table` follow the production engine's
interface, so the production report builder can read this engine too.
It predates fault handling beyond throttles (a down group drains, a
stall is rejected), so it serves as a reference for runs without downs
or stalls only.
"""

from __future__ import annotations

import heapq
import math
from typing import Sequence

import numpy as np

from repro.hw.transfer import h2d_time
from repro.serving.faults import FaultPlan, FaultRuntime, RetryPolicy
from repro.serving.fleet import (
    AutoscalePolicy,
    DeviceGroup,
    FleetConfigError,
    ScalingEvent,
)
from repro.serving.simulator import TenantSpec

# ---------------------------------------------------------------------------
# Dense latency tables
# ---------------------------------------------------------------------------

# A dense table never needs to stretch past the policies' decision range;
# anything larger falls back to the exact per-query path.
_MAX_TABLE = 4096


def _dense_curve(cost, device: str, max_k: int) -> np.ndarray | None:
    """Precompute ``latency(device, k)`` for ``k = 1..max_k``, or ``None``.

    Only cost models exposing their anchor representation
    (``anchors`` + ``anchor_times``, i.e. the profiled/trace models) are
    vectorized; everything else (e.g. test callables) goes through the
    exact per-query fallback. The vectorized interpolation reproduces
    the scalar ``_interp_affine`` (``tests/serving/curve_oracle.py``)
    operation-for-operation, so table lookups are bit-identical to the
    scalar path the classic simulator took.
    """
    times_fn = getattr(cost, "anchor_times", None)
    if times_fn is None:
        return None
    anchors = np.array(cost.anchors, dtype=np.float64)
    times = times_fn(device)
    ks = np.arange(1, max_k + 1, dtype=np.float64)
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


class _GroupCost:
    """Per-tenant cost adapter the policies and the group router see.

    Groups are addressed by device model name, so ``device_name`` is the
    identity and ``underlying`` exposes the tenant's cost model — the
    same contract the classic loop's ``_SlotCost`` provides, which keeps
    :class:`~repro.serving.policies.AdaptiveSLOPolicy`'s drain memo
    shared (and valid) across both simulators.

    ``throttle`` is the live group → factor dict the fault edges mutate.
    """

    __slots__ = ("underlying", "_max_k", "_tables", "_memo", "_throttle")

    def __init__(self, cost, throttle: dict[str, float], max_k: int):
        self.underlying = cost
        self._max_k = min(int(max_k), _MAX_TABLE)
        self._tables: dict[str, np.ndarray | None] = {}
        self._memo: dict[tuple[str, int], float] = {}
        self._throttle = throttle

    def latency(self, device: str, batch_size: int) -> float:
        try:
            table = self._tables[device]
        except KeyError:
            table = self._tables[device] = _dense_curve(
                self.underlying, device, self._max_k)
        if table is not None and 1 <= batch_size <= table.size:
            base = float(table[batch_size - 1])
        else:
            key = (device, batch_size)
            base = self._memo.get(key)
            if base is None:
                base = self._memo[key] = float(
                    self.underlying.latency(device, batch_size))
        factor = self._throttle.get(device)
        if factor is not None:
            base *= factor
        return base

    def device_name(self, device: str) -> str:
        return device


def _policy_max_batch(policy, probe_cap: int) -> int:
    """Largest batch size a policy's decisions can ever price."""
    return max(int(probe_cap),
               int(getattr(policy, "max_batch", 0) or 0),
               int(getattr(policy, "batch_size", 0) or 0),
               1)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class _FleetEngine:
    """Vectorized event loop over device groups.

    One *epoch* = advance the clock to the next relevant instant, absorb
    everything due (fault edges, arrivals in bulk, autoscale ticks),
    then offer queued work to idle groups until every policy holds.
    Request timing is written straight into preallocated output columns;
    no per-request Python objects exist anywhere.
    """

    def __init__(self, tenants: Sequence[TenantSpec],
                 groups: Sequence[DeviceGroup], columns,
                 autoscale: AutoscalePolicy | None,
                 faults: FaultPlan | None,
                 hop_bytes: float, router, retry=None):
        self.tenants = list(tenants)
        self.groups = list(groups)
        self.autoscale = autoscale
        self.hop_bytes = float(hop_bytes)
        # This engine ranks groups inline, earliest-finish only.
        probe_cap = self.probe_cap = int(router.probe_cap)
        self.faults = faults

        n = len(columns)
        self.n = n
        self.arr_all = columns.arrivals
        self.codes = columns.codes

        # Per-tenant views of the stream. A single stable argsort groups
        # the request indices by tenant while preserving arrival order
        # within each tenant (one O(n log n) pass instead of one mask
        # scan per tenant). The only per-request output the report needs
        # elementwise is the latency (percentiles, SLO attainment), so
        # that is the only per-request buffer kept — a batch is always a
        # slice of one tenant's queue, making the hot-loop write a
        # cache-friendly contiguous fill. Queue/formation/service waits
        # only ever surface as means, so they fold into scalar
        # accumulators while the batch slice is still cache-hot.
        K = len(self.tenants)
        order = np.argsort(self.codes, kind="stable")
        bounds = np.zeros(K + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.codes, minlength=K), out=bounds[1:])
        self.arr_t = [np.ascontiguousarray(
            self.arr_all[order[bounds[t]:bounds[t + 1]]]) for t in range(K)]
        self.lat_t = [np.empty(a.size, dtype=np.float64) for a in self.arr_t]
        self.arr_sum = [0.0] * K   # sum of dispatched requests' arrivals
        self.disp_sum = [0.0] * K  # sum of dispatch instants (x batch size)
        self.form_sum = 0.0        # global formation-wait sum
        self.serv_sum = 0.0        # global service-time sum
        self.head = [0] * K
        self.tail = [0] * K
        self.last_group: list[int | None] = [None] * K

        self.throttle: dict[str, float] = {}
        self.policies = [spec.policy for spec in self.tenants]
        self.tcost = [
            _GroupCost(spec.cost, self.throttle,
                       _policy_max_batch(spec.policy, probe_cap))
            for spec in self.tenants
        ]

        # Per-group replica state: free-time vectors over the full
        # provisioned pool; ``act`` bounds the autoscaler-active prefix.
        G = len(self.groups)
        self.gdev = [g.device for g in self.groups]
        self.free = [np.zeros(g.capacity, dtype=np.float64) for g in self.groups]
        self.act = [g.replicas for g in self.groups]
        self.down = [False] * G
        self.batches = [0] * G
        self.requests = [0] * G
        self.busy = [0.0] * G
        self.hop_batches = [0] * G
        self.hop_time = [0.0] * G
        self.peak = [g.replicas for g in self.groups]
        self.histograms: list[dict[int, int]] = [{} for _ in range(G)]
        self.occ_int = [0.0] * G  # integral of act over time
        self.occ_last = [0.0] * G
        self.last_action = [-np.inf] * G
        self.scaling: list[ScalingEvent] = []

        self.edges: list[tuple] = []
        if faults is not None and not faults.empty:
            resolved = faults.resolve(self.gdev, {d: d for d in self.gdev})
            for when, _seq, kind, grp, arg in resolved:
                if kind == "stall":
                    raise FleetConfigError(
                        f"fault plan stalls {grp!r}: transient stalls are "
                        "slot-level events with no group meaning; use the "
                        "classic simulator for stall studies")
                self.edges.append((when, kind, grp, arg))
        self.edge_ptr = 0

        self.completed = 0
        self.makespan = 0.0
        self.next_arr = 0
        self.pending_wakeup: float | None = None
        self.tick_count = 0
        # Rolling window of batch latencies for the p99 autoscale metric.
        self.p99_window: list[np.ndarray] = []

        # Busy-replica bookkeeping. The free-time vectors are the ground
        # truth, but scanning them per epoch is O(replicas x epochs); the
        # hot loop instead keeps (a) a min-heap of in-flight batch
        # finish times — so the next completion is O(1) to peek — and
        # (b) a per-group count of idle replicas in the active prefix,
        # decremented at dispatch and re-incremented as entries drain
        # off the heap. Scaling events re-derive the counts from the
        # vectors (rare; ticks only).
        self.busy_heap: list[tuple[float, int, int]] = []
        self.idle_count = [g.replicas for g in self.groups]

        self._gindex = {d: i for i, d in enumerate(self.gdev)}
        self._device_specs: dict[str, object] = {}  # lazy, hop pricing only

    # -- time stepping -----------------------------------------------------------

    def _next_tick(self) -> float:
        if self.autoscale is None:
            return math.inf
        return (self.tick_count + 1) * self.autoscale.interval

    def _next_time(self, now: float) -> float:
        """Earliest instant after ``now`` at which anything can change."""
        candidates = []
        if self.pending_wakeup is not None:
            candidates.append(self.pending_wakeup)
        if self.edge_ptr < len(self.edges):
            candidates.append(self.edges[self.edge_ptr][0])
        tick = self._next_tick()
        if tick < math.inf:
            candidates.append(tick)
        if self.busy_heap:
            # Entries at or before ``now`` were drained in _advance, so
            # the heap top is the next batch completion across the fleet.
            candidates.append(self.busy_heap[0][0])
        if self.next_arr < self.n:
            for g in range(len(self.groups)):
                if not self.down[g] and self.idle_count[g]:
                    # Some active replica is idle right now; between here
                    # and the next free event nothing busies it, so the
                    # next arrival is a dispatch opportunity worth
                    # visiting.
                    candidates.append(float(self.arr_all[self.next_arr]))
                    break
        nxt = min((c for c in candidates if c > now), default=math.inf)
        return nxt

    def _advance(self, now: float) -> None:
        """Absorb everything due at ``now``: completions, fault edges,
        arrivals, ticks."""
        heap = self.busy_heap
        while heap and heap[0][0] <= now:
            _finish, g, ridx = heapq.heappop(heap)
            if ridx < self.act[g]:
                self.idle_count[g] += 1
            # else: the replica drained outside the autoscaler-active
            # prefix; its free time stays on the vector and is picked
            # back up by the recount if the group scales out again.
        while self.edge_ptr < len(self.edges) and self.edges[self.edge_ptr][0] <= now:
            _when, kind, grp, arg = self.edges[self.edge_ptr]
            self.edge_ptr += 1
            g = self._gindex[grp]
            if kind == "down":
                self.down[g] = True
            elif kind == "recover":
                self.down[g] = False
            elif kind == "throttle-on":
                self.throttle[grp] = arg
            elif kind == "throttle-off":
                self.throttle.pop(grp, None)
        if self.next_arr < self.n:
            old = self.next_arr
            new_total = int(np.searchsorted(self.arr_all, now, side="right"))
            if new_total > old:
                self.next_arr = new_total
                counts = np.bincount(self.codes[old:new_total],
                                     minlength=len(self.tenants))
                for t, c in enumerate(counts.tolist()):
                    self.tail[t] += c
        if self.autoscale is not None:
            n_scaled = len(self.scaling)
            while self._next_tick() <= now:
                tick = self._next_tick()
                self.tick_count += 1
                self._tick(tick)
            if len(self.scaling) != n_scaled:
                # Active prefixes moved; re-derive the idle counts from
                # the free-time vectors (w.r.t. *now* — everything due
                # has already drained off the heap).
                for g in range(len(self.groups)):
                    act = self.act[g]
                    self.idle_count[g] = int(
                        (self.free[g][:act] <= now).sum())
        if self.pending_wakeup is not None and now >= self.pending_wakeup:
            self.pending_wakeup = None

    # -- autoscaling -------------------------------------------------------------

    def _tick(self, when: float) -> None:
        scale = self.autoscale
        queued = self.next_arr - self.completed
        if scale.metric == "queue":
            value = float(queued)
        else:  # p99 of batch latencies dispatched since the last tick
            if self.p99_window:
                value = float(np.percentile(np.concatenate(self.p99_window), 99))
            else:
                value = 0.0
            self.p99_window.clear()
        for g, group in enumerate(self.groups):
            if self.down[g]:
                continue
            if when - self.last_action[g] < scale.cooldown:
                continue
            act = self.act[g]
            max_r = min(scale.max_replicas or group.capacity, group.capacity)
            min_r = min(scale.min_replicas, max_r)
            if value > scale.threshold and act < max_r:
                after = min(act + scale.step, max_r)
                reason = f"{scale.metric}={value:g}>{scale.threshold:g}"
            elif queued == 0 and act > min_r:
                idle = int((self.free[g][:act] <= when).sum())
                if idle / act < scale.idle_fraction:
                    continue
                after = max(act - scale.step, min_r)
                reason = f"idle {idle}/{act}"
            else:
                continue
            self.occ_int[g] += act * (when - self.occ_last[g])
            self.occ_last[g] = when
            self.act[g] = after
            self.peak[g] = max(self.peak[g], after)
            self.last_action[g] = when
            self.scaling.append(
                ScalingEvent(when, self.gdev[g], act, after, reason))

    # -- the offer loop ----------------------------------------------------------

    def _idle_groups(self, now: float) -> list[int]:
        counts = self.idle_count
        down = self.down
        return [g for g in range(len(self.groups))
                if counts[g] and not down[g]]

    def _offer(self, now: float) -> None:
        """Offer queued work to idle groups until every policy holds.

        Mirrors the classic loop: tenants in oldest-head-first order
        (stable on ties, i.e. spec order), groups in router order
        (amortized per-request latency at the probe batch, device-name
        tie-break); the first (tenant, group) pair whose policy
        dispatches restarts the scan.
        """
        K = len(self.tenants)
        while True:
            active = [t for t in range(K) if self.head[t] < self.tail[t]]
            if not active:
                return
            idle = self._idle_groups(now)
            if not idle:
                return
            if len(active) > 1:
                active.sort(key=lambda t: float(self.arr_t[t][self.head[t]]))
            chosen_t = chosen_g = size = None
            for t in active:
                qlen = self.tail[t] - self.head[t]
                cost = self.tcost[t]
                if len(idle) == 1:
                    ranked = idle
                else:
                    probe = max(1, min(qlen, self.probe_cap))
                    ranked = sorted(
                        idle,
                        key=lambda g: (cost.latency(self.gdev[g], probe) / probe,
                                       self.gdev[g]))
                oldest_wait = now - float(self.arr_t[t][self.head[t]])
                for g in ranked:
                    size = self.policies[t].decide(
                        now, qlen, oldest_wait, self.gdev[g], cost)
                    if size is not None:
                        chosen_t, chosen_g = t, g
                        break
                if size is not None:
                    break
            if size is None:
                self._hold(now, active)
                return
            self._dispatch(chosen_t, chosen_g, size, now)

    def _hold(self, now: float, active: list[int]) -> None:
        wakes = (self.policies[t].next_wakeup(
                    now, float(self.arr_t[t][self.head[t]])) for t in active)
        wake = min((w for w in wakes if w is not None and w > now), default=None)
        if wake is not None and (self.pending_wakeup is None
                                 or wake < self.pending_wakeup):
            self.pending_wakeup = wake
        if (self.pending_wakeup is None and self.next_arr >= self.n
                and self.edge_ptr >= len(self.edges)
                and not self.busy_heap):
            names = ",".join(self.policies[t].name for t in active)
            raise RuntimeError(f"policy {names!r} held with no pending events")

    def _dispatch(self, t: int, g: int, size: int, now: float) -> None:
        head = self.head[t]
        qlen = self.tail[t] - head
        size = max(1, min(int(size), qlen))
        device = self.gdev[g]
        duration = self.tcost[t].latency(device, size)
        if duration <= 0:
            raise ValueError("batch_time must return a positive duration")
        fa = self.free[g]
        act = self.act[g]
        ridx = int(np.argmax(fa[:act] <= now))
        idle_since = float(fa[ridx])
        finish = now + duration
        busy = duration
        if self.hop_bytes > 0.0 and self.last_group[t] not in (None, g):
            spec = self._device_specs.get(device)
            if spec is None:
                from repro.hw.device import get_device

                spec = self._device_specs[device] = get_device(device)
            hop = h2d_time(self.hop_bytes * size, spec)
            finish += hop
            busy += hop
            self.hop_batches[g] += 1
            self.hop_time[g] += hop
        self.last_group[t] = g

        end = head + size
        batch_arr = self.arr_t[t][head:end]
        lat = self.lat_t[t][head:end]
        np.subtract(finish, batch_arr, out=lat)
        # Queued requests arrived at or before ``now`` and the chosen
        # replica freed at or before ``now``, so the classic
        # ``max(0, now - max(arrival, idle_since))`` formation wait
        # reduces to a min of two non-negative terms; it (and the queue
        # and service waits) only ever surface as means, so they fold
        # into scalar accumulators here rather than per-request buffers.
        asum = float(batch_arr.sum())
        self.arr_sum[t] += asum
        self.disp_sum[t] += now * size
        self.serv_sum += (finish - now) * size
        self.form_sum += float(
            np.minimum(now - batch_arr, now - idle_since).sum())
        self.head[t] = end
        fa[ridx] = finish
        heapq.heappush(self.busy_heap, (finish, g, ridx))
        self.idle_count[g] -= 1
        self.batches[g] += 1
        self.requests[g] += size
        self.histograms[g][size] = self.histograms[g].get(size, 0) + 1
        self.busy[g] += busy
        self.completed += size
        if finish > self.makespan:
            self.makespan = finish
        if self.autoscale is not None and self.autoscale.metric == "p99":
            self.p99_window.append(lat)

    # -- run ---------------------------------------------------------------------

    def run(self) -> float:
        if self.n == 0:
            return 0.0
        first = [float(self.arr_all[0])]
        if self.edges:
            first.append(self.edges[0][0])
        tick = self._next_tick()
        if tick < math.inf:
            first.append(tick)
        now = min(first)
        while self.completed < self.n:
            self._advance(now)
            self._offer(now)
            if self.completed >= self.n:
                break
            nxt = self._next_time(now)
            if nxt == math.inf:
                raise RuntimeError(
                    "fleet event loop stalled with requests pending")
            now = nxt
        for g in range(len(self.groups)):
            self.occ_int[g] += self.act[g] * (self.makespan - self.occ_last[g])
            self.occ_last[g] = self.makespan
        return self.makespan

    def batch_histograms(self) -> list[dict[int, int]]:
        """Per group, dispatched batches by size (sorted by size)."""
        return [dict(sorted(h.items())) for h in self.histograms]

    def request_table(self):
        """This engine keeps no per-request columns but the latencies."""
        raise NotImplementedError("the fleet oracle builds no request table")

    def fault_stats(self):
        """The report's fault accounting. This engine predates it; with
        only throttle edges to apply nothing is aborted, retried or shed,
        so the stats follow from the plan and the run's length."""
        if self.faults is None:
            return None
        runtime = FaultRuntime(self.faults, RetryPolicy(), self.gdev,
                               {d: d for d in self.gdev})
        return runtime.build_stats(
            self.makespan, self.n,
            {spec.name: (spec.degraded, spec.slo) for spec in self.tenants},
            {}, {})
