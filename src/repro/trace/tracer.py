"""Global tracer that the numpy DNN framework emits kernel events into.

The tracer is deliberately cheap when inactive: :func:`emit_kernel` checks a
module-level flag and returns immediately, so the numeric framework pays a
single branch per op when no profiling session is running.

Usage::

    tracer = Tracer()
    with tracer.activate():
        with tracer.stage("encoder"), tracer.modality("image"):
            model.encode(x)
    trace = tracer.finish()

Stage and modality contexts nest; the innermost value wins. This is how
MMBench "splits the multi-modal DNN into different stages and characterizes
the sub-nets respectively".
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING

from repro.trace.columns import TraceColumns
from repro.trace.events import PASS_FORWARD, STAGE_ENCODER

if TYPE_CHECKING:
    from repro.trace.events import HostEvent, HostOpKind, KernelCategory, KernelEvent

# The currently-active tracer, or None. A single global keeps the per-op
# emission cost to one attribute load + branch.
_ACTIVE: "Tracer | None" = None

#: Sentinel for "no explicit override" on fields where ``None`` is a
#: meaningful value (a kernel with no modality attribution).
UNSET = object()


def active_tracer() -> "Tracer | None":
    """Return the currently active tracer, if any."""
    return _ACTIVE


def emit_kernel(
    name: str,
    category: KernelCategory,
    flops: float,
    bytes_read: float,
    bytes_written: float,
    threads: int,
    coalesced_fraction: float = 1.0,
    reuse_factor: float = 1.0,
    stage: "str | None" = None,
    modality=UNSET,
    pass_: "str | None" = None,
    **meta,
) -> None:
    """Record a kernel launch on the active tracer (no-op when inactive).

    ``stage`` / ``modality`` / ``pass_`` override the tracer's context
    stacks when given. Backward closures use this: they execute long after
    the stage/modality scopes that built them have unwound, so they carry
    the snapshotted forward context explicitly. The launch is recorded as
    one row in :meth:`TraceColumns.from_rows` order.
    """
    tracer = _ACTIVE
    if tracer is None:
        return
    seq = tracer._seq
    tracer._seq = seq + 1
    context_stage, context_modality, context_pass = tracer.context
    tracer._kernel_rows.append((
        name, category, float(flops), float(bytes_read), float(bytes_written),
        int(threads), coalesced_fraction, reuse_factor,
        context_stage if stage is None else stage,
        context_modality if modality is UNSET else modality,
        context_pass if pass_ is None else pass_,
        seq, meta,
    ))


def emit_host(kind: HostOpKind, bytes: float = 0.0, name: str = "", **meta) -> None:
    """Record a host-side operation on the active tracer (no-op when inactive)."""
    tracer = _ACTIVE
    if tracer is None:
        return
    seq = tracer._seq
    tracer._seq = seq + 1
    tracer._host_rows.append((kind, float(bytes), name, *tracer.context, seq, meta))


@contextlib.contextmanager
def stage_scope(name: str):
    """Enter a stage context on the active tracer (no-op when inactive)."""
    tracer = _ACTIVE
    if tracer is None:
        yield
        return
    with tracer.stage(name):
        yield


@contextlib.contextmanager
def modality_scope(name: str):
    """Enter a modality context on the active tracer (no-op when inactive)."""
    tracer = _ACTIVE
    if tracer is None:
        yield
        return
    with tracer.modality(name):
        yield


@contextlib.contextmanager
def pass_scope(name: str):
    """Enter a pass context on the active tracer (no-op when inactive)."""
    tracer = _ACTIVE
    if tracer is None:
        yield
        return
    with tracer.pass_(name):
        yield


class Trace:
    """The immutable result of a tracing session.

    Holds two equivalent representations and converts lazily between them:
    the columnar structure-of-arrays view
    (:class:`~repro.trace.columns.TraceColumns`, the pricing form) and the
    per-event object lists (``kernels`` / ``host_events``). A trace fresh
    from a tracer or an ingest, or loaded from the store's disk tier,
    starts life columnar and only materializes event objects if a consumer
    asks for them; a trace built from event lists builds its columns once,
    on first use, caching them here. The trace is treated as immutable
    once finished — mutating events after the columns were built
    desynchronizes the two views.
    """

    __slots__ = ("_kernels", "_host_events", "_columns",
                 "_total_flops", "_total_bytes")

    def __init__(self, kernels: list[KernelEvent] | None = None,
                 host_events: list[HostEvent] | None = None):
        self._kernels: list[KernelEvent] | None = (
            list(kernels) if kernels is not None else []
        )
        self._host_events: list[HostEvent] | None = (
            list(host_events) if host_events is not None else []
        )
        self._columns: "TraceColumns | None" = None
        self._total_flops: float | None = None
        self._total_bytes: float | None = None

    @classmethod
    def from_columns(cls, columns: "TraceColumns") -> "Trace":
        """Wrap an existing columnar view; events materialize on demand."""
        trace = cls.__new__(cls)
        trace._kernels = None
        trace._host_events = None
        trace._columns = columns
        trace._total_flops = None
        trace._total_bytes = None
        return trace

    @property
    def kernels(self) -> list[KernelEvent]:
        if self._kernels is None:
            self._kernels = self._columns.materialize_kernels()
        return self._kernels

    @property
    def host_events(self) -> list[HostEvent]:
        if self._host_events is None:
            self._host_events = self._columns.materialize_host_events()
        return self._host_events

    def columns(self) -> "TraceColumns":
        """The cached columnar view (built on first use)."""
        if self._columns is None:
            self._columns = TraceColumns.from_events(self._kernels,
                                                     self._host_events)
        return self._columns

    def kernels_in_stage(self, stage: str) -> list[KernelEvent]:
        kernels = self.kernels
        return [kernels[i] for i in self.columns().kernel_indices_in_stage(stage)]

    def kernels_for_modality(self, modality: str) -> list[KernelEvent]:
        kernels = self.kernels
        return [kernels[i] for i in self.columns().kernel_indices_for_modality(modality)]

    @property
    def total_flops(self) -> float:
        if self._total_flops is None:
            self._total_flops = float(self.columns().flops.sum())
        return self._total_flops

    @property
    def total_bytes(self) -> float:
        if self._total_bytes is None:
            self._total_bytes = float(self.columns().bytes_total.sum())
        return self._total_bytes

    def stages(self) -> list[str]:
        """Stages present in this trace's kernels, in first-seen order."""
        return self.columns().kernel_stages()

    def modalities(self) -> list[str]:
        return self.columns().kernel_modalities()

    def passes(self) -> list[str]:
        """Passes present in this trace's kernels, in first-seen order.

        Inference traces report ``["forward"]``; a traced training step
        reports all four passes of the taxonomy.
        """
        return self.columns().kernel_passes()

    def kernels_in_pass(self, pass_: str) -> list[KernelEvent]:
        kernels = self.kernels
        return [kernels[i] for i in self.columns().kernel_indices_for_pass(pass_)]


#: The (stage, modality, pass) context outside every scope.
DEFAULT_CONTEXT = (STAGE_ENCODER, None, PASS_FORWARD)


class Tracer:
    """Collects kernel and host events with stage/modality context."""

    def __init__(self) -> None:
        self._kernel_rows: list[tuple] = []
        self._host_rows: list[tuple] = []
        # One label stack per context field, in DEFAULT_CONTEXT order.
        self._stacks: tuple[list, list, list] = ([], [], [])
        #: The innermost (stage, modality, pass) labels: what every event
        #: emitted now is tagged with. Rebuilt whenever a scope opens or
        #: closes, so emission reads one attribute per event.
        self.context: tuple = DEFAULT_CONTEXT
        self._seq = 0

    # -- context management -------------------------------------------------

    @contextlib.contextmanager
    def activate(self):
        """Make this tracer the global event sink for the duration."""
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("another tracer is already active")
        _ACTIVE = self
        try:
            yield self
        finally:
            _ACTIVE = None

    @contextlib.contextmanager
    def _scope(self, field: int, name):
        stack = self._stacks[field]
        stack.append(name)
        self._rebuild_context()
        try:
            yield
        finally:
            stack.pop()
            self._rebuild_context()

    def _rebuild_context(self) -> None:
        self.context = tuple(stack[-1] if stack else default for stack, default
                             in zip(self._stacks, DEFAULT_CONTEXT))

    def stage(self, name: str):
        """Set the stage label for events emitted inside the block."""
        return self._scope(0, name)

    def modality(self, name: str):
        """Set the modality label for events emitted inside the block."""
        return self._scope(1, name)

    def pass_(self, name: str):
        """Set the pass label (forward/loss/backward/optimizer) for events
        emitted inside the block."""
        return self._scope(2, name)

    # -- results ---------------------------------------------------------------

    def finish(self) -> Trace:
        """Return the collected trace (columns built once) and reset."""
        columns = TraceColumns.from_rows(self._kernel_rows, self._host_rows)
        self._kernel_rows = []
        self._host_rows = []
        self._seq = 0
        return Trace.from_columns(columns)
