"""Columnar trace rules (MMB1xx/MMB2xx) and execution-graph rules.

Two artifact kinds live here:

* ``trace`` — rules over :class:`~repro.trace.columns.TraceColumns`.
  Every check is a handful of numpy reductions over existing columns, so
  linting a 50k-kernel trace costs low milliseconds. Captured traces are
  well-formed by construction; these rules exist for the other origins —
  binary store payloads (which validate code *bounds* but not value
  *signs* on load), hand-built event lists, and trace surgery.
* ``graph`` — rules over a parsed execution-graph JSON payload (the
  ``mmbench-eg/1`` dict), checked *without* running ingest: dependency
  violations, negative/non-finite explicit descriptors, dtype-vs-bytes
  inconsistency. These mirror (and statically front-run) the structured
  ``IngestError`` the ingest path raises.
"""

from __future__ import annotations

import math
import sys
from typing import Iterator

import numpy as np

from repro.lint.core import Diagnostic, LintContext, rule
from repro.trace.columns import PASS_ORDER, TraceColumns
from repro.trace.events import (
    STAGE_ENCODER,
    STAGE_FUSION,
    KernelCategory,
)
from repro.trace.ingest import DTYPE_BYTES

STAGE_UNKNOWN = "unknown"  # trace.ingest's bucket for unmapped ops

_OTHER_CODE = tuple(KernelCategory).index(KernelCategory.OTHER)

#: float64 work-descriptor columns checked by MMB101/MMB102, with the
#: location prefix their indices anchor to.
_KERNEL_DESCRIPTORS = ("flops", "bytes_read", "bytes_written")


def _kernel_location(cols: TraceColumns, idx: int) -> str:
    name = cols.name_table[int(cols.name_codes[idx])]
    return f"kernel[{idx}] {name!r}"


def _host_location(cols: TraceColumns, idx: int) -> str:
    name = cols.host_name_table[int(cols.host_name_codes[idx])]
    return f"host[{idx}] {name!r}"


def _first(mask: np.ndarray) -> int:
    return int(np.argmax(mask))


# ---------------------------------------------------------------------------
# MMB1xx — work descriptors over columns
# ---------------------------------------------------------------------------


@rule("MMB101", "error", "trace",
      "negative work descriptor (flops / bytes / threads / host bytes)")
def negative_work(cols: TraceColumns, ctx: LintContext) -> Iterator[Diagnostic]:
    for col in _KERNEL_DESCRIPTORS:
        values = getattr(cols, col)
        bad = values < 0
        if bad.any():
            i = _first(bad)
            yield ctx.diag(
                "MMB101",
                f"{int(bad.sum())} kernel(s) with negative {col} "
                f"(first: {values[i]:g})",
                _kernel_location(cols, i),
                fix=f"clamp or re-derive {col}; capture backends never "
                    f"emit negative work",
            )
    bad = cols.threads < 0
    if bad.any():
        i = _first(bad)
        yield ctx.diag(
            "MMB101",
            f"{int(bad.sum())} kernel(s) with negative threads "
            f"(first: {int(cols.threads[i])})",
            _kernel_location(cols, i),
            fix="thread counts are cardinalities; re-derive from shapes",
        )
    if cols.host_n:
        bad = cols.host_bytes < 0
        if bad.any():
            i = _first(bad)
            yield ctx.diag(
                "MMB101",
                f"{int(bad.sum())} host op(s) with negative bytes "
                f"(first: {cols.host_bytes[i]:g})",
                _host_location(cols, i),
                fix="transfer sizes are byte counts; re-derive from shapes",
            )


@rule("MMB102", "error", "trace",
      "non-finite (NaN/inf) work descriptor")
def nonfinite_work(cols: TraceColumns, ctx: LintContext) -> Iterator[Diagnostic]:
    for col in _KERNEL_DESCRIPTORS + ("coalesced_fraction", "reuse_factor"):
        values = getattr(cols, col)
        bad = ~np.isfinite(values)
        if bad.any():
            i = _first(bad)
            yield ctx.diag(
                "MMB102",
                f"{int(bad.sum())} kernel(s) with non-finite {col}",
                _kernel_location(cols, i),
                fix="NaN/inf poisons every roofline reduction downstream; "
                    "drop or re-derive the kernel",
            )
    if cols.host_n:
        bad = ~np.isfinite(cols.host_bytes)
        if bad.any():
            i = _first(bad)
            yield ctx.diag(
                "MMB102",
                f"{int(bad.sum())} host op(s) with non-finite bytes",
                _host_location(cols, i),
            )


@rule("MMB103", "warning", "trace",
      "dead kernel: zero flops and zero bytes (prices to zero time)")
def dead_kernels(cols: TraceColumns, ctx: LintContext) -> Iterator[Diagnostic]:
    dead = (cols.flops == 0) & (cols.bytes_read == 0) & (cols.bytes_written == 0)
    count = int(dead.sum())
    if count > ctx.dead_threshold:
        i = _first(dead)
        yield ctx.diag(
            "MMB103",
            f"{count} dead kernel(s): zero flops and zero bytes, so they "
            f"price to zero duration and hide in every breakdown",
            _kernel_location(cols, i),
            fix="drop no-op kernels at capture/ingest time, or attach the "
                "bytes they actually move",
        )


@rule("MMB104", "warning", "trace",
      "locality descriptor out of range (coalesced not in [0,1], reuse < 1)")
def locality_range(cols: TraceColumns, ctx: LintContext) -> Iterator[Diagnostic]:
    finite = np.isfinite(cols.coalesced_fraction)
    bad = finite & ((cols.coalesced_fraction < 0) | (cols.coalesced_fraction > 1))
    if bad.any():
        i = _first(bad)
        yield ctx.diag(
            "MMB104",
            f"{int(bad.sum())} kernel(s) with coalesced_fraction outside "
            f"[0, 1] (first: {cols.coalesced_fraction[i]:g})",
            _kernel_location(cols, i),
            fix="coalesced_fraction is a fraction of accesses; clamp to [0, 1]",
        )
    finite = np.isfinite(cols.reuse_factor)
    bad = finite & (cols.reuse_factor < 1)
    if bad.any():
        i = _first(bad)
        yield ctx.diag(
            "MMB104",
            f"{int(bad.sum())} kernel(s) with reuse_factor < 1 "
            f"(first: {cols.reuse_factor[i]:g})",
            _kernel_location(cols, i),
            fix="reuse_factor >= 1 by definition (each byte touched at "
                "least once)",
        )


# ---------------------------------------------------------------------------
# MMB2xx — pass/stage taxonomy over columns
# ---------------------------------------------------------------------------


@rule("MMB201", "error", "trace",
      "pass-taxonomy ordering violation (e.g. optimizer before backward)")
def pass_order(cols: TraceColumns, ctx: LintContext) -> Iterator[Diagnostic]:
    """Passes must not interleave: every kernel of a later pass must come
    after every kernel of any earlier pass (forward < loss < backward <
    optimizer in ``seq``)."""
    present = []
    for code, name in enumerate(PASS_ORDER):
        mask = cols.pass_codes == code
        if mask.any():
            present.append((name, mask,
                            int(cols.seq[mask].min()), int(cols.seq[mask].max())))
    for (early, _, _, early_max), (late, late_mask, late_min, _) in zip(
            present, present[1:]):
        if late_min <= early_max:
            i = _first(late_mask & (cols.seq == late_min))
            yield ctx.diag(
                "MMB201",
                f"{late} kernel at seq {late_min} precedes the last {early} "
                f"kernel (seq {early_max}); passes must not interleave",
                _kernel_location(cols, i),
                fix=f"re-check pass detection: a {late}-pass kernel cannot "
                    f"run before the {early} pass finishes",
            )


@rule("MMB202", "warning", "trace",
      "unknown-op bucket above threshold (unmapped ops dominate the trace)")
def unknown_bucket(cols: TraceColumns, ctx: LintContext) -> Iterator[Diagnostic]:
    """Ingest never drops unmapped ops — it buckets them as category OTHER
    in the 'unknown' stage. A large bucket means the priced numbers mostly
    reflect the fallback work model, not the graph."""
    if cols.n == 0 or STAGE_UNKNOWN not in cols.stage_table:
        return
    unknown_stage = cols.stage_table.index(STAGE_UNKNOWN)
    mask = (cols.category_codes == _OTHER_CODE) & \
           (cols.stage_codes == unknown_stage)
    fraction = float(mask.sum()) / cols.n
    if fraction > ctx.unknown_threshold:
        i = _first(mask)
        yield ctx.diag(
            "MMB202",
            f"unknown-op bucket is {fraction:.0%} of {cols.n} kernels "
            f"(threshold {ctx.unknown_threshold:.0%})",
            _kernel_location(cols, i),
            fix="register op-mapping rules (--op-map pattern=category) for "
                "the unmatched names",
        )


@rule("MMB203", "error", "trace",
      "fusion legality: forward fusion kernel before any encoder kernel")
def fusion_order(cols: TraceColumns, ctx: LintContext) -> Iterator[Diagnostic]:
    """Fusion consumes encoder outputs, so in the forward pass no fusion
    kernel can precede the first encoder kernel. Restricted to forward:
    the backward pass legitimately visits stages in reverse."""
    if STAGE_FUSION not in cols.stage_table or \
            STAGE_ENCODER not in cols.stage_table:
        return
    forward = cols.pass_codes == PASS_ORDER.index("forward")
    fusion = forward & (cols.stage_codes == cols.stage_table.index(STAGE_FUSION))
    encoder = forward & (cols.stage_codes == cols.stage_table.index(STAGE_ENCODER))
    if not fusion.any() or not encoder.any():
        return
    first_fusion = int(cols.seq[fusion].min())
    first_encoder = int(cols.seq[encoder].min())
    if first_fusion < first_encoder:
        i = _first(fusion & (cols.seq == first_fusion))
        yield ctx.diag(
            "MMB203",
            f"forward fusion kernel at seq {first_fusion} precedes the "
            f"first encoder kernel (seq {first_encoder}); fusion consumes "
            f"encoder outputs",
            _kernel_location(cols, i),
            fix="re-check stage tagging: fusion-stage work cannot start "
                "before its encoder inputs exist",
        )


@rule("MMB204", "info", "trace",
      "empty trace (no kernels)")
def empty_trace(cols: TraceColumns, ctx: LintContext) -> Iterator[Diagnostic]:
    if cols.n == 0:
        yield ctx.diag(
            "MMB204",
            "trace has no kernels; every priced metric will be zero",
            "trace",
            fix="check the capture/ingest produced the graph you expect",
        )


# ---------------------------------------------------------------------------
# graph rules — parsed mmbench-eg/1 payloads, checked without ingesting
# ---------------------------------------------------------------------------

#: explicit per-node work descriptors that must be finite and >= 0
_NODE_DESCRIPTORS = ("flops", "bytes_read", "bytes_written", "threads",
                     "coalesced_fraction", "reuse_factor", "bytes")
#: graph-level model descriptors with the same sign contract
_MODEL_DESCRIPTORS = ("parameters", "parameter_bytes", "input_bytes")


def _node_id(node: dict, index: int) -> str:
    nid = node.get("id", index)
    name = node.get("name")
    return f"node {nid} ({name!r})" if name else f"node {nid}"


def _graph_nodes(payload: dict) -> list:
    """The graph's node list; a non-list ``nodes`` is ingest's finding, so
    the static rules see no nodes (``lint_path`` reports the refusal)."""
    nodes = payload.get("nodes", [])
    return nodes if isinstance(nodes, list) else []


def _bad_id(value) -> bool:
    """A node or parent id nothing can key a graph by (a JSON list or
    object)."""
    return isinstance(value, (list, dict))


def _bad_number(value) -> bool:
    """True when an explicit descriptor is negative, non-finite, or not a
    number at all (bool counts as not-a-number: it is a flag, not work)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return True
    return not 0 <= value <= sys.float_info.max  # NaN, inf, oversized int


@rule("MMB111", "error", "graph",
      "dependency violation: missing parent or dependency cycle")
def graph_dependencies(payload: dict, ctx: LintContext) -> Iterator[Diagnostic]:
    nodes = _graph_nodes(payload)
    ids = {node.get("id") for node in nodes
           if isinstance(node, dict) and not _bad_id(node.get("id"))}
    adjacency: dict = {}
    missing = 0
    first_missing = None
    for index, node in enumerate(nodes):
        # A node id that is a list or an object is ingest's finding.
        if not isinstance(node, dict) or _bad_id(node.get("id")):
            continue
        parents = node.get("parents", [])
        kept = []
        for parent in parents if isinstance(parents, list) else []:
            if _bad_id(parent) or parent not in ids:
                missing += 1
                if first_missing is None:
                    first_missing = (index, node, parent)
            else:
                kept.append(parent)
        adjacency[node.get("id")] = kept
    if first_missing is not None:
        index, node, parent = first_missing
        yield ctx.diag(
            "MMB111",
            f"{missing} edge(s) to parents that are not in the graph "
            f"(first: parent {parent!r})",
            _node_id(node, index),
            fix="emit every referenced node, or strip stale parent ids",
        )
    # Kahn's algorithm: whatever it cannot order sits on a cycle.
    indegree = {nid: 0 for nid in adjacency}
    children: dict = {nid: [] for nid in adjacency}
    for nid, parents in adjacency.items():
        indegree[nid] = len(parents)
        for parent in parents:
            children[parent].append(nid)
    ready = [nid for nid, deg in indegree.items() if deg == 0]
    ordered = 0
    while ready:
        nid = ready.pop()
        ordered += 1
        for child in children[nid]:
            indegree[child] -= 1
            if indegree[child] == 0:
                ready.append(child)
    if ordered < len(adjacency):
        stuck = sorted((nid for nid, deg in indegree.items() if deg > 0),
                       key=str)
        by_id = {node.get("id"): (i, node) for i, node in enumerate(nodes)
                 if isinstance(node, dict) and not _bad_id(node.get("id"))}
        index, node = by_id[stuck[0]]
        yield ctx.diag(
            "MMB111",
            f"{len(stuck)} node(s) sit on a dependency cycle "
            f"(e.g. {', '.join(str(s) for s in stuck[:4])})",
            _node_id(node, index),
            fix="execution graphs are DAGs; break the cycle upstream",
        )


@rule("MMB112", "error", "graph",
      "negative or non-finite explicit work descriptor in graph JSON")
def graph_descriptors(payload: dict, ctx: LintContext) -> Iterator[Diagnostic]:
    bad = 0
    first = None
    for index, node in enumerate(_graph_nodes(payload)):
        if not isinstance(node, dict):
            continue
        for key in _NODE_DESCRIPTORS:
            if key in node and _bad_number(node[key]):
                bad += 1
                if first is None:
                    first = (index, node, key, node[key])
    if first is not None:
        index, node, key, value = first
        yield ctx.diag(
            "MMB112",
            f"{bad} explicit descriptor(s) that are negative, non-finite "
            f"or non-numeric (first: {key}={value!r})",
            _node_id(node, index),
            fix="explicit descriptors override shape-based estimation and "
                "must be finite and >= 0",
        )
    model = payload.get("model", {})
    if isinstance(model, dict):
        for key in _MODEL_DESCRIPTORS:
            if key in model and _bad_number(model[key]):
                yield ctx.diag(
                    "MMB112",
                    f"model metadata {key}={model[key]!r} is negative, "
                    f"non-finite or non-numeric",
                    f"model.{key}",
                    fix="model descriptors feed the peak-memory model; "
                        "they must be finite and >= 0",
                )


@rule("MMB110", "warning", "graph",
      "dtype-vs-bytes inconsistency: explicit bytes below the declared "
      "tensor footprint")
def dtype_bytes(payload: dict, ctx: LintContext) -> Iterator[Diagnostic]:
    """An explicit ``bytes_written`` smaller than the node's own declared
    output tensors (shape x dtype itemsize) contradicts the graph: the
    node cannot materialize its outputs in fewer bytes."""
    bad = 0
    first = None
    for index, node in enumerate(_graph_nodes(payload)):
        if not isinstance(node, dict) or "bytes_written" not in node:
            continue
        declared = node.get("output_shapes")
        dtypes = node.get("output_dtypes")
        if not isinstance(declared, list) or not isinstance(dtypes, list) \
                or len(declared) != len(dtypes):
            continue
        value = node["bytes_written"]
        if _bad_number(value):
            continue  # MMB112's finding, not ours
        footprint = 0
        for shape, dtype in zip(declared, dtypes):
            # A shape or dtype that ingest refuses is ingest's finding.
            if not isinstance(shape, list) or not isinstance(dtype, str) \
                    or dtype.lower() not in DTYPE_BYTES \
                    or not all(type(dim) is int and dim >= 0 for dim in shape) \
                    or math.prod(shape) >= 2**63:
                footprint = None
                break
            footprint += math.prod(shape) * DTYPE_BYTES[dtype.lower()]
        if footprint is not None and value < footprint:
            bad += 1
            if first is None:
                first = (index, node, value, footprint)
    if first is not None:
        index, node, value, footprint = first
        yield ctx.diag(
            "MMB110",
            f"{bad} node(s) declare explicit bytes_written below their own "
            f"output footprint (first: {value:g} < {footprint} bytes of "
            f"declared outputs)",
            _node_id(node, index),
            fix="either the shapes/dtypes or the explicit bytes are wrong; "
                "drop the explicit value to fall back to shape-based "
                "estimation",
        )
