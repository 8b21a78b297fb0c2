"""Batch placement across heterogeneous devices.

When several devices are idle at once, the router decides which one the
next batch is formed for. Devices are heterogeneous analytical models
(a 2080Ti server GPU next to a Jetson Nano differs by ~50x in peak
FLOPs), so placement order matters: the fast device should absorb the
bulk of the stream and the slow one mop up overflow.
"""

from __future__ import annotations


class RouterScaleError(RuntimeError):
    """The per-request router was asked to rank a fleet-sized slot pool.

    Ranking is O(idle · cost-model calls) per offer; past a few hundred
    idle slots (each a one-replica group in ``simulate_mixed``) the event
    loop degrades quadratically. The fix is to group homogeneous
    replicas and simulate with :func:`repro.serving.fleet.simulate_fleet`,
    which routes per *group* instead of per slot.
    """


class Router:
    """Orders idle device slots; subclasses override :meth:`rank`."""

    name: str = "router"

    def rank(self, idle: list[str], queue_len: int, cost) -> list[str]:
        """Return idle slots in the order batches should be offered to them.

        ``idle`` holds *slot* labels; ``cost.latency(slot, k)`` prices a
        batch on the device behind a slot.
        """
        raise NotImplementedError

    def note_dispatch(self, slot: str) -> None:
        """Called after a batch lands on ``slot``; stateful routers advance here.

        Subclasses overriding this must call ``super().note_dispatch(slot)``
        first: dispatching onto a slot the router was told is down is a
        simulator bug, and the base class turns it into a loud error
        instead of silently corrupting routing state.
        """
        if slot in getattr(self, "_down_slots", ()):
            raise RuntimeError(
                f"dispatch recorded on down slot {slot!r}; "
                "the event loop must exclude down slots before ranking")

    # -- fault awareness (driven by the fault runtime) --------------------------

    def note_down(self, slot: str) -> None:
        """``slot`` left the pool; it must never be ranked until it recovers."""
        down = getattr(self, "_down_slots", None)
        if down is None:
            down = self._down_slots = set()
        down.add(slot)

    def note_recover(self, slot: str) -> None:
        """``slot`` rejoined the pool; ranking may consider it again."""
        getattr(self, "_down_slots", set()).discard(slot)

    @property
    def down_slots(self) -> frozenset[str]:
        """Slots the router currently believes are down."""
        return frozenset(getattr(self, "_down_slots", ()))

    def _exclude_down(self, idle: list[str]) -> list[str]:
        """Defensively drop down slots from a candidate list."""
        down = getattr(self, "_down_slots", None)
        if down:
            return [s for s in idle if s not in down]
        return idle


class EarliestFinishRouter(Router):
    """Prefer the device with the best amortized per-request service time.

    Ranks idle devices by ``latency(k)/k`` at the batch size the queue
    could fill right now — effectively earliest-finish-time placement for
    the work at hand. Deterministic tie-break on slot label.

    ``probe_cap`` bounds the *probe batch size* used for the amortized
    comparison, not the number of slots ranked: with a 10k-deep queue the
    router prices ``latency(s, 128)/128`` rather than walking cost models
    out to the full queue depth. Callers whose policies batch past 128
    can raise it per instance or per call (``rank(..., probe_cap=...)``).

    ``max_idle`` is a scale guard: ranking is a per-offer sort with one
    cost-model call per idle slot, so a fleet-sized pool of slots
    (hundreds of replicas) turns the event loop quadratic. Exceeding it
    raises :class:`RouterScaleError` pointing at device groups instead of
    silently crawling.
    """

    name = "earliest-finish"

    def __init__(self, probe_cap: int = 128, max_idle: int = 1024):
        if probe_cap < 1:
            raise ValueError(f"probe_cap must be >= 1, got {probe_cap}")
        if max_idle < 1:
            raise ValueError(f"max_idle must be >= 1, got {max_idle}")
        self.probe_cap = probe_cap
        self.max_idle = max_idle

    def rank(self, idle, queue_len, cost, probe_cap=None):
        idle = self._exclude_down(idle)
        if len(idle) > self.max_idle:
            raise RouterScaleError(
                f"{len(idle)} idle slots exceed the per-request router's "
                f"max_idle={self.max_idle}; group homogeneous replicas and "
                "use repro.serving.fleet.simulate_fleet for fleet-scale "
                "pools (or raise max_idle explicitly)")
        cap = self.probe_cap if probe_cap is None else probe_cap
        probe = max(1, min(queue_len, cap))
        return sorted(idle, key=lambda s: (cost.latency(s, probe) / probe, s))


class RoundRobinRouter(Router):
    """Rotate through devices regardless of speed (baseline placement).

    The rotation advances per *dispatch* (via :meth:`note_dispatch`), not
    per ranking call — offers where the policy holds, or where only one
    device is idle, must not skew the rotation.
    """

    name = "round-robin"

    def __init__(self):
        self._next = 0

    def rank(self, idle, queue_len, cost):
        ordered = sorted(self._exclude_down(idle))
        if not ordered:
            return ordered
        pivot = self._next % len(ordered)
        return ordered[pivot:] + ordered[:pivot]

    def note_dispatch(self, slot):
        super().note_dispatch(slot)
        self._next += 1


def make_router(name: str) -> Router:
    """Build a router from its CLI name."""
    if name in ("earliest-finish", "eft"):
        return EarliestFinishRouter()
    if name in ("round-robin", "rr"):
        return RoundRobinRouter()
    raise KeyError(f"unknown router {name!r}; available: earliest-finish, round-robin")
