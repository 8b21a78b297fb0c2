"""Columnar (structure-of-arrays) view of a trace.

:class:`TraceColumns` is the one layout a trace lives in: one contiguous
float64 array per work descriptor (FLOPs, bytes read/written, threads,
coalescing, reuse), plus small integer code arrays for the categorical
fields (kernel category, stage, modality, event name) backed by interned
string tables in first-seen order. The execution engine runs the roofline
model over thousands of kernels in a handful of numpy operations on it.

A capture records one plain tuple per kernel launch and host event and
builds the columns once, when the tracer finishes (:meth:`from_rows`); an
ingest does the same, and the trace store's disk tier serializes this
form directly, so a warm load never churns through per-event objects at
all — ``KernelEvent`` / ``HostEvent`` lists are materialized lazily only
when a consumer actually asks for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.trace.events import HostEvent, HostOpKind, KernelCategory, KernelEvent, PASSES

#: Fixed category order shared by every columnar trace and every efficiency
#: lookup vector in :mod:`repro.hw`. Index = code.
CATEGORY_ORDER: tuple[KernelCategory, ...] = tuple(KernelCategory)
CATEGORY_CODES: dict[KernelCategory, int] = {c: i for i, c in enumerate(CATEGORY_ORDER)}

#: Fixed host-op order; index = code.
HOST_KIND_ORDER: tuple[HostOpKind, ...] = tuple(HostOpKind)
HOST_KIND_CODES: dict[HostOpKind, int] = {k: i for i, k in enumerate(HOST_KIND_ORDER)}

#: Fixed pass order (forward/loss/backward/optimizer); index = code.
PASS_ORDER: tuple[str, ...] = PASSES
PASS_CODES: dict[str, int] = {p: i for i, p in enumerate(PASS_ORDER)}

#: Modality code for "no modality" (``KernelEvent.modality is None``).
NO_MODALITY = -1

#: The stable on-disk column schema (name, little-endian dtype). The binary
#: store (:mod:`repro.trace.binfmt`) lays its column blocks out from these
#: specs, so adding/reordering a column is a format change, not a silent
#: drift.
KERNEL_COLUMN_SPEC: tuple[tuple[str, str], ...] = (
    ("flops", "<f8"), ("bytes_read", "<f8"), ("bytes_written", "<f8"),
    ("threads", "<i8"), ("coalesced_fraction", "<f8"), ("reuse_factor", "<f8"),
    ("category_codes", "<i8"), ("stage_codes", "<i8"),
    ("modality_codes", "<i8"), ("pass_codes", "<i8"),
    ("name_codes", "<i8"), ("seq", "<i8"),
)
HOST_COLUMN_SPEC: tuple[tuple[str, str], ...] = (
    ("host_kind_codes", "<i8"), ("host_bytes", "<f8"),
    ("host_stage_codes", "<i8"), ("host_modality_codes", "<i8"),
    ("host_pass_codes", "<i8"), ("host_name_codes", "<i8"),
    ("host_seq", "<i8"),
)
#: Interned string tables, in header order.
TABLE_NAMES = ("stage_table", "modality_table", "name_table", "host_name_table")


@dataclass
class TraceColumns:
    """Structure-of-arrays view of one trace (kernels + host events)."""

    # -- kernel columns (length n) ---------------------------------------------
    n: int
    flops: np.ndarray
    bytes_read: np.ndarray
    bytes_written: np.ndarray
    threads: np.ndarray  # int64; float view cached in threads_f
    coalesced_fraction: np.ndarray
    reuse_factor: np.ndarray
    category_codes: np.ndarray  # int64 into CATEGORY_ORDER
    stage_codes: np.ndarray  # int64 into stage_table
    modality_codes: np.ndarray  # int64 into modality_table; NO_MODALITY = None
    pass_codes: np.ndarray  # int64 into PASS_ORDER
    name_codes: np.ndarray  # int64 into name_table
    seq: np.ndarray  # int64
    # -- host-event columns (length host_n) ------------------------------------
    host_n: int
    host_kind_codes: np.ndarray  # int64 into HOST_KIND_ORDER
    host_bytes: np.ndarray
    host_stage_codes: np.ndarray
    host_modality_codes: np.ndarray
    host_pass_codes: np.ndarray
    host_name_codes: np.ndarray
    host_seq: np.ndarray
    # -- interned string tables (shared by kernel and host columns) ------------
    stage_table: tuple[str, ...]
    modality_table: tuple[str, ...]
    name_table: tuple[str, ...]
    host_name_table: tuple[str, ...]
    # -- sparse metadata: index -> non-empty meta dict --------------------------
    # Kernels of a trace loaded from the store may share one dict: read-only.
    meta: dict[int, dict] = field(default_factory=dict)
    host_meta: dict[int, dict] = field(default_factory=dict)

    # -- derived columns (cached) ----------------------------------------------

    def __post_init__(self):
        self._bytes_total: np.ndarray | None = None
        self._threads_f: np.ndarray | None = None

    @property
    def bytes_total(self) -> np.ndarray:
        if self._bytes_total is None:
            self._bytes_total = self.bytes_read + self.bytes_written
        return self._bytes_total

    @property
    def threads_f(self) -> np.ndarray:
        if self._threads_f is None:
            self._threads_f = self.threads.astype(np.float64)
        return self._threads_f

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_rows(cls, kernel_rows, host_rows=()) -> "TraceColumns":
        """Build columns from plain rows, one array pass per column.

        A kernel row is ``(name, category, flops, bytes_read,
        bytes_written, threads, coalesced_fraction, reuse_factor, stage,
        modality, pass_, seq, meta)``; a host row is ``(kind, bytes, name,
        stage, modality, pass_, seq, meta)``. The stage and modality tables
        are shared and interned in first-seen order, kernels first, then
        host events; ``None`` modality codes as :data:`NO_MODALITY`.
        """
        stages: dict[str, int] = {}
        modalities: dict[str, int] = {}
        names: dict[str, int] = {}
        host_names: dict[str, int] = {}

        def f8(values) -> np.ndarray:
            return np.array(values, dtype=np.float64)

        def i8(values) -> np.ndarray:
            return np.array(values, dtype=np.int64)

        def interned(table: dict[str, int], values) -> np.ndarray:
            return i8([table.setdefault(v, len(table)) for v in values])

        def modality_codes(values) -> np.ndarray:
            return i8([NO_MODALITY if v is None
                       else modalities.setdefault(v, len(modalities))
                       for v in values])

        (name, category, flops, bytes_read, bytes_written, threads, coalesced,
         reuse, stage, modality, pass_, seq, meta) = (
            list(zip(*kernel_rows)) or [()] * 13)
        (host_kind, host_bytes, host_name, host_stage, host_modality,
         host_pass, host_seq, host_meta) = list(zip(*host_rows)) or [()] * 8

        # Kernels intern before host events: the shared tables' order.
        stage_codes = interned(stages, stage)
        host_stage_codes = interned(stages, host_stage)
        kernel_modality_codes = modality_codes(modality)
        host_modality_codes = modality_codes(host_modality)
        return cls(
            n=len(kernel_rows), flops=f8(flops), bytes_read=f8(bytes_read),
            bytes_written=f8(bytes_written), threads=i8(threads),
            coalesced_fraction=f8(coalesced), reuse_factor=f8(reuse),
            category_codes=i8([CATEGORY_CODES[c] for c in category]),
            stage_codes=stage_codes, modality_codes=kernel_modality_codes,
            pass_codes=i8([PASS_CODES[p] for p in pass_]),
            name_codes=interned(names, name), seq=i8(seq),
            host_n=len(host_rows),
            host_kind_codes=i8([HOST_KIND_CODES[k] for k in host_kind]),
            host_bytes=f8(host_bytes), host_stage_codes=host_stage_codes,
            host_modality_codes=host_modality_codes,
            host_pass_codes=i8([PASS_CODES[p] for p in host_pass]),
            host_name_codes=interned(host_names, host_name),
            host_seq=i8(host_seq),
            stage_table=tuple(stages), modality_table=tuple(modalities),
            name_table=tuple(names), host_name_table=tuple(host_names),
            meta={i: m for i, m in enumerate(meta) if m},
            host_meta={i: m for i, m in enumerate(host_meta) if m},
        )

    @classmethod
    def from_events(
        cls, kernels: list[KernelEvent], host_events: list[HostEvent]
    ) -> "TraceColumns":
        """Build columns from event objects (rows in :meth:`from_rows` order)."""
        return cls.from_rows(
            [(k.name, k.category, k.flops, k.bytes_read, k.bytes_written,
              k.threads, k.coalesced_fraction, k.reuse_factor, k.stage,
              k.modality, k.pass_, k.seq, k.meta) for k in kernels],
            [(h.kind, h.bytes, h.name, h.stage, h.modality, h.pass_, h.seq,
              h.meta) for h in host_events],
        )

    # -- materialization (API-compatibility escape hatch) ----------------------

    def materialize_kernels(self) -> list[KernelEvent]:
        """Rebuild the ``KernelEvent`` list (lazy consumers only)."""
        out: list[KernelEvent] = []
        for i in range(self.n):
            mod_code = int(self.modality_codes[i])
            out.append(KernelEvent(
                name=self.name_table[int(self.name_codes[i])],
                category=CATEGORY_ORDER[int(self.category_codes[i])],
                flops=float(self.flops[i]),
                bytes_read=float(self.bytes_read[i]),
                bytes_written=float(self.bytes_written[i]),
                threads=int(self.threads[i]),
                stage=self.stage_table[int(self.stage_codes[i])],
                modality=None if mod_code == NO_MODALITY else self.modality_table[mod_code],
                pass_=PASS_ORDER[int(self.pass_codes[i])],
                seq=int(self.seq[i]),
                coalesced_fraction=float(self.coalesced_fraction[i]),
                reuse_factor=float(self.reuse_factor[i]),
                meta=dict(self.meta.get(i, {})),
            ))
        return out

    def materialize_host_events(self) -> list[HostEvent]:
        out: list[HostEvent] = []
        for i in range(self.host_n):
            mod_code = int(self.host_modality_codes[i])
            out.append(HostEvent(
                kind=HOST_KIND_ORDER[int(self.host_kind_codes[i])],
                bytes=float(self.host_bytes[i]),
                stage=self.stage_table[int(self.host_stage_codes[i])],
                modality=None if mod_code == NO_MODALITY else self.modality_table[mod_code],
                pass_=PASS_ORDER[int(self.host_pass_codes[i])],
                seq=int(self.host_seq[i]),
                name=self.host_name_table[int(self.host_name_codes[i])],
                meta=dict(self.host_meta.get(i, {})),
            ))
        return out

    # -- categorical lookups ---------------------------------------------------

    def stage_code(self, stage: str) -> int | None:
        """Code for ``stage``, or None if the trace never saw it."""
        try:
            return self.stage_table.index(stage)
        except ValueError:
            return None

    def modality_code(self, modality: str) -> int | None:
        try:
            return self.modality_table.index(modality)
        except ValueError:
            return None

    def kernel_stages(self) -> list[str]:
        """Stages present among *kernels*, in first-seen order."""
        if self.n == 0:
            return []
        codes, first = np.unique(self.stage_codes, return_index=True)
        return [self.stage_table[int(c)] for c in codes[np.argsort(first)]]

    def kernel_modalities(self) -> list[str]:
        """Modalities present among kernels, in first-seen order."""
        attributed = self.modality_codes[self.modality_codes != NO_MODALITY]
        if attributed.size == 0:
            return []
        codes, first = np.unique(attributed, return_index=True)
        return [self.modality_table[int(c)] for c in codes[np.argsort(first)]]

    def kernel_indices_in_stage(self, stage: str) -> np.ndarray:
        code = self.stage_code(stage)
        if code is None:
            return np.empty(0, dtype=np.int64)
        return np.nonzero(self.stage_codes == code)[0]

    def kernel_indices_for_modality(self, modality: str) -> np.ndarray:
        code = self.modality_code(modality)
        if code is None:
            return np.empty(0, dtype=np.int64)
        return np.nonzero(self.modality_codes == code)[0]

    def kernel_passes(self) -> list[str]:
        """Passes present among kernels, in first-seen order."""
        if self.n == 0:
            return []
        codes, first = np.unique(self.pass_codes, return_index=True)
        return [PASS_ORDER[int(c)] for c in codes[np.argsort(first)]]

    def kernel_indices_for_pass(self, pass_: str) -> np.ndarray:
        code = PASS_CODES.get(pass_)
        if code is None:
            return np.empty(0, dtype=np.int64)
        return np.nonzero(self.pass_codes == code)[0]

    # -- transforms ------------------------------------------------------------

    def scaled(self, factor: float) -> "TraceColumns":
        """Scale every work descriptor by ``factor`` (see ``scale_trace``)."""
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        return TraceColumns(
            n=self.n,
            flops=self.flops * factor,
            bytes_read=self.bytes_read * factor,
            bytes_written=self.bytes_written * factor,
            # Truncate toward zero like int(), but never below one thread.
            threads=np.maximum(1, (self.threads * factor).astype(np.int64)),
            coalesced_fraction=self.coalesced_fraction.copy(),
            reuse_factor=self.reuse_factor.copy(),
            category_codes=self.category_codes.copy(),
            stage_codes=self.stage_codes.copy(),
            modality_codes=self.modality_codes.copy(),
            pass_codes=self.pass_codes.copy(),
            name_codes=self.name_codes.copy(),
            seq=self.seq.copy(),
            host_n=self.host_n,
            host_kind_codes=self.host_kind_codes.copy(),
            host_bytes=self.host_bytes * factor,
            host_stage_codes=self.host_stage_codes.copy(),
            host_modality_codes=self.host_modality_codes.copy(),
            host_pass_codes=self.host_pass_codes.copy(),
            host_name_codes=self.host_name_codes.copy(),
            host_seq=self.host_seq.copy(),
            stage_table=self.stage_table,
            modality_table=self.modality_table,
            name_table=self.name_table,
            host_name_table=self.host_name_table,
            meta={i: dict(m) for i, m in self.meta.items()},
            host_meta={i: dict(m) for i, m in self.host_meta.items()},
        )
