"""Requests and arrival processes for the open-loop serving simulator.

A :class:`Request` is one inference task travelling through the serving
system. Its timeline decomposes end-to-end latency the way a deployment
engineer debugs it:

    arrival --(queueing)--> could_start --(batch formation)--> dispatch
            --(compute)--> finish

``queueing`` is time spent waiting because every device was busy;
``batch formation`` is time the batching policy *chose* to hold the
request while a device sat idle (timeout-based policies trade this
against larger, more efficient batches); ``compute`` is the batch's
service time on the device it was routed to.

Multi-tenant streams tag each request with the ``tenant`` (workload) it
belongs to; the simulator keeps one FIFO queue per tenant and never
batches across tenants (different workloads cannot share a batch).

The serving engine never holds ``Request`` objects: an arrival stream
enters as :class:`RequestColumns`, and a run's per-request outcomes
leave as a :class:`RequestTable`, which builds the objects only for a
caller that asks for them.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

_FLOAT_MAX = sys.float_info.max


def is_finite_number(value) -> bool:
    """True for a real, finite number; False for NaN, infinities, bools,
    strings, ``None`` and anything else a JSON plan or a caller might pass.

    Fault-plan fields, retry settings, policy timeouts and SLOs, and
    arrival rates all pass through it: one NaN among them silently
    breaks event ordering instead of raising. It is a range test rather
    than ``math.isfinite``: an int too large for a float64 (JSON allows
    one) is not finite on the event clock either.
    """
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and -_FLOAT_MAX <= value <= _FLOAT_MAX)


def check_arrivals(arrivals) -> np.ndarray:
    """Arrival times as a float64 column, or ``ValueError`` naming the
    first bad index.

    Every arrival must be a real number (not a bool or a numeric
    string), finite and non-negative: a NaN, an infinity or a negative
    time cannot be placed on the event clock.
    """
    if isinstance(arrivals, np.ndarray) and arrivals.dtype.kind in "fiu":
        column = arrivals.astype(np.float64, copy=False)
    else:
        values = list(arrivals)
        # Plain floats and ints need no per-element check (an ABC test
        # per element dominates a million-request list); any other type
        # takes the loop that names the first bad index.
        if not set(map(type, values)) <= {float, int}:
            for i, value in enumerate(values):
                if not isinstance(value, numbers.Real) or isinstance(value, bool):
                    raise ValueError(
                        f"request arrival [{i}] must be a number, got {value!r}")
        try:
            column = np.array(values, dtype=np.float64)
        except OverflowError:  # an int past the float64 range reads as inf
            column = np.array([v if is_finite_number(v) or v != v
                               else math.inf if v > 0 else -math.inf
                               for v in values], dtype=np.float64)
    bad = np.flatnonzero(~(column >= 0.0) | ~np.isfinite(column))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"request arrival [{i}] must be finite and "
                         f"non-negative, got {float(column[i])!r}")
    return column


@dataclass(slots=True)
class Request:
    """One inference task; timing fields are filled in by the simulator."""

    index: int
    arrival: float
    tenant: str = ""  # workload/tenant tag; "" in single-tenant simulations
    dispatch: float = field(default=float("nan"))
    finish: float = field(default=float("nan"))
    device: str = ""
    batch_size: int = 0  # size of the batch this request rode in
    formation_wait: float = 0.0  # policy-induced wait while a device was idle
    retries: int = 0  # times this request was aborted by a device failure
    shed: bool = False  # dropped (retries/deadline exhausted), never completed
    degraded: bool = False  # served in the tenant's degraded mode

    @property
    def queue_time(self) -> float:
        """Total pre-dispatch wait (queueing + batch formation)."""
        return self.dispatch - self.arrival

    @property
    def service_time(self) -> float:
        return self.finish - self.dispatch

    @property
    def latency(self) -> float:
        """End-to-end: arrival to completion."""
        return self.finish - self.arrival


def poisson_arrivals(n_requests: int, arrival_rate: float, seed: int = 0) -> np.ndarray:
    """Cumulative arrival times of a Poisson stream with the given mean rate.

    ``n_requests=0`` yields an empty stream (an empty simulation is
    well-formed); negative counts are rejected.
    """
    if n_requests < 0:
        raise ValueError(f"n_requests must be non-negative, got {n_requests}")
    if not is_finite_number(arrival_rate) or arrival_rate <= 0:
        raise ValueError(f"arrival_rate must be positive and finite, "
                         f"got {arrival_rate!r}")
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(1.0 / arrival_rate, size=n_requests))


def closed_arrivals(n_requests: int) -> np.ndarray:
    """All requests queued at t=0 — the paper's closed 10,000-task setting."""
    if n_requests < 0:
        raise ValueError(f"n_requests must be non-negative, got {n_requests}")
    return np.zeros(n_requests)


def make_requests(arrivals: np.ndarray, tenant: str = "") -> list[Request]:
    """Wrap an arrival-time array into simulator requests (FIFO order)."""
    return [Request(index=i, arrival=float(t), tenant=tenant)
            for i, t in enumerate(arrivals)]


@dataclass(frozen=True)
class RequestColumns:
    """A tagged, arrival-sorted request stream as parallel columns.

    The columnar twin of a ``list[Request]``: ``arrivals`` is sorted
    ascending, ``codes[i]`` indexes ``tenants`` for request ``i``. The
    serving engine (:mod:`repro.serving.fleet`) consumes the columns
    directly; :meth:`to_requests` materializes request objects for
    callers that want them.
    """

    arrivals: np.ndarray  # float64, sorted ascending
    codes: np.ndarray  # int64 index into ``tenants``, parallel to arrivals
    tenants: tuple[str, ...]

    def __post_init__(self):
        arrivals = np.ascontiguousarray(self.arrivals, dtype=np.float64)
        codes = np.ascontiguousarray(self.codes, dtype=np.int64)
        if arrivals.shape != codes.shape or arrivals.ndim != 1:
            raise ValueError("arrivals and codes must be parallel 1-D arrays")
        if codes.size and (codes.min() < 0 or codes.max() >= len(self.tenants)):
            raise ValueError("tenant codes out of range")
        object.__setattr__(self, "arrivals", arrivals)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "tenants", tuple(self.tenants))

    def __len__(self) -> int:
        return int(self.arrivals.size)

    def to_requests(self) -> list[Request]:
        """Materialize the stream as ``Request`` objects (one ``tolist``
        per column instead of a per-attribute numpy indexing loop)."""
        names = list(self.tenants)
        return [
            Request(index=i, arrival=arrival, tenant=names[code])
            for i, (arrival, code) in enumerate(
                zip(self.arrivals.tolist(), self.codes.tolist()))
        ]


@dataclass(frozen=True, eq=False)
class RequestTable:
    """Every served request's outcome as parallel columns, in stream order.

    The columnar twin of a served ``list[Request]``, one row per request:
    ``tenant`` indexes ``tenants``, ``slot`` indexes ``slots`` and
    ``replica`` is the replica of the slot's group that ran it. A shed
    request keeps NaN ``dispatch``/``finish``, slot and replica ``-1``,
    batch size 0 and formation wait 0. :meth:`to_requests` builds the
    ``Request`` objects for callers that read them;
    :meth:`from_requests` goes the other way.
    """

    index: np.ndarray  # int64, each request's caller-facing index
    arrival: np.ndarray  # float64
    tenant: np.ndarray  # int64 code into ``tenants``
    tenants: tuple[str, ...]
    dispatch: np.ndarray  # float64
    finish: np.ndarray  # float64
    slot: np.ndarray  # intp code into ``slots``; -1 = never completed
    slots: tuple[str, ...]
    replica: np.ndarray  # intp replica in the slot's group (0 on a classic slot)
    batch_size: np.ndarray  # intp
    formation: np.ndarray  # float64 formation wait
    retries: np.ndarray  # intp
    shed: np.ndarray  # bool
    degraded: np.ndarray  # bool

    def __len__(self) -> int:
        return int(self.arrival.size)

    def to_requests(self) -> list[Request]:
        """Materialize the rows as ``Request`` objects (one ``tolist`` per
        column, so every field is a plain Python scalar)."""
        names = list(self.tenants)
        labels = [*self.slots, ""]  # code -1: never completed
        return list(map(
            Request, self.index.tolist(), self.arrival.tolist(),
            map(names.__getitem__, self.tenant.tolist()),
            self.dispatch.tolist(), self.finish.tolist(),
            map(labels.__getitem__, self.slot.tolist()),
            self.batch_size.tolist(), self.formation.tolist(),
            self.retries.tolist(), self.shed.tolist(), self.degraded.tolist()))

    @classmethod
    def from_requests(cls, requests: Sequence[Request]) -> RequestTable:
        """The table of a request list (tenant and slot tables in order of
        first appearance; a request with no device gets slot -1)."""
        tenants = tuple(dict.fromkeys(r.tenant for r in requests))
        slots = tuple(dict.fromkeys(r.device for r in requests if r.device))
        tenant_code = {name: i for i, name in enumerate(tenants)}
        slot_code = {label: i for i, label in enumerate(slots)}
        slot_code[""] = -1

        def column(values, dtype):
            return np.fromiter(values, dtype=dtype, count=len(requests))

        return cls(
            index=column((r.index for r in requests), np.int64),
            arrival=column((r.arrival for r in requests), np.float64),
            tenant=column((tenant_code[r.tenant] for r in requests), np.int64),
            tenants=tenants,
            dispatch=column((r.dispatch for r in requests), np.float64),
            finish=column((r.finish for r in requests), np.float64),
            slot=column((slot_code[r.device] for r in requests), np.intp),
            slots=slots,
            replica=column((0 if r.device else -1 for r in requests), np.intp),
            batch_size=column((r.batch_size for r in requests), np.intp),
            formation=column((r.formation_wait for r in requests), np.float64),
            retries=column((r.retries for r in requests), np.intp),
            shed=column((r.shed for r in requests), bool),
            degraded=column((r.degraded for r in requests), bool),
        )


def sort_request_columns(
    arrivals: np.ndarray,
    tenant_codes: np.ndarray,
    tenants: Sequence[str],
) -> RequestColumns:
    """Sort parallel (arrival, code) arrays into :class:`RequestColumns`.

    The sort is stable (same-instant requests keep their generated order)
    and skipped entirely when the arrivals are already non-decreasing —
    the common case, since Poisson-style generators emit cumulative sums.
    """
    arrivals = np.asarray(arrivals, dtype=np.float64)
    tenant_codes = np.asarray(tenant_codes, dtype=np.int64)
    if arrivals.shape != tenant_codes.shape:
        raise ValueError("arrivals and tenant_codes must be parallel arrays")
    if arrivals.size and np.any(np.diff(arrivals) < 0):
        order = np.argsort(arrivals, kind="stable")
        arrivals = arrivals[order]
        tenant_codes = tenant_codes[order]
    return RequestColumns(arrivals, tenant_codes, tuple(tenants))
