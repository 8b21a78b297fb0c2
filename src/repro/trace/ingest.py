"""Execution-graph ingest: price *external* model traces on the native pipeline.

The nine built-in workloads are captured by our own tracer, but a
trace-pricing engine is only production-useful if it can price real
models. This module parses Chakra/PARAM-style execution-graph JSON (node
id, op name, input/output shapes, dtypes, parent/child dependencies —
the format PyTorch's ExecutionGraphObserver and PARAM's ``eg_replay``
family exchange) into a native :class:`~repro.trace.tracer.Trace`, after
which it flows unchanged through the vectorized execution engine, sweep
grids and serving cost models.

Ingest is a mapping problem, and mappings corrupt silently, so every
decision here is explicit and observable:

* **Op-name -> kernel-category** resolution goes through a pluggable
  :class:`OpMappingRegistry` (ordered rules, overridable per call or via
  ``mmbench ingest --op-map``). Names no rule matches land in the
  :class:`~repro.trace.events.KernelCategory.OTHER` category and are
  *reported* in the :class:`IngestReport`'s unknown-op bucket — never
  dropped, never guessed quietly.
* **Work descriptors** (FLOPs / bytes / threads) are taken verbatim when
  the graph carries them (our own exporter does; see
  :mod:`repro.export.graph`) and otherwise estimated from shapes and
  dtypes with the per-category formulas documented in ``docs/ingest.md``.
* **Backward/loss/optimizer ops** are detected from names (the PARAM
  ``is_backward_aten`` idea) and feed the forward/loss/backward/optimizer
  pass taxonomy; explicit per-node ``pass`` fields always win.
* **Malformed graphs fail loudly and structurally**: a missing parent, an
  unknown dtype, a dependency cycle or a negative work descriptor raises
  :class:`IngestError` naming the offending node, not a ``KeyError`` or
  ``RecursionError`` deep in the mapper.

Nodes are re-ordered topologically (Kahn's algorithm, original file order
as the tie-break) so the emitted event sequence respects the graph's
dependencies regardless of serialization order.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.trace.columns import TraceColumns
from repro.trace.events import (
    HostOpKind,
    KernelCategory,
    PASSES,
    PASS_BACKWARD,
    PASS_FORWARD,
    PASS_LOSS,
    PASS_OPTIMIZER,
    STAGE_ENCODER,
    STAGE_FUSION,
    STAGE_HEAD,
    STAGE_OPTIMIZER,
    STAGE_PREPROCESS,
)
from repro.trace.tracer import Trace

#: Schema identifier written by the exporter and accepted (but not
#: required — PARAM/Chakra files don't carry it) by the loader.
GRAPH_SCHEMA = "mmbench-eg/1"

#: Stage label for kernels no heuristic could attribute. Reported, never
#: dropped: the stage table is dynamic, so ``unknown`` aggregates like any
#: other stage in per-stage breakdowns.
STAGE_UNKNOWN = "unknown"

#: Bytes per element for every dtype spelling the loader accepts.
DTYPE_BYTES: dict[str, int] = {
    "float64": 8, "double": 8, "fp64": 8,
    "float32": 4, "float": 4, "fp32": 4,
    "float16": 2, "half": 2, "fp16": 2,
    "bfloat16": 2, "bf16": 2,
    "int64": 8, "long": 8, "uint64": 8,
    "int32": 4, "int": 4, "uint32": 4,
    "int16": 2, "short": 2, "uint16": 2,
    "int8": 1, "uint8": 1, "byte": 1, "char": 1, "bool": 1,
}

_CATEGORY_BY_NAME = {c.value.lower(): c for c in KernelCategory}
_CATEGORY_BY_NAME.update({c.name.lower(): c for c in KernelCategory})
_HOST_KIND_BY_NAME = {k.value.lower(): k for k in HostOpKind}

_NON_ALNUM = re.compile(r"[^0-9a-z]+")
#: Counts go into int64 columns and descriptors into float64 ones; a JSON
#: int may be larger than either.
_INT64_LIMIT = 2**63
_FLOAT_MAX = sys.float_info.max
_CAMEL_BOUNDARY = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")


class IngestError(Exception):
    """Structured ingest failure naming the offending node.

    ``node_id`` is the graph node the failure was detected at (None for
    graph-level problems such as an unparseable file), ``source`` the file
    or label the graph came from. The message always embeds both, so a CLI
    user sees one actionable line instead of a traceback into the mapper.
    """

    def __init__(self, reason: str, node_id=None, source: str | None = None):
        self.reason = reason
        self.node_id = node_id
        self.source = source
        where = "" if node_id is None else f" (node {node_id!r})"
        origin = "" if not source else f" [{source}]"
        super().__init__(f"{reason}{where}{origin}")


# -- op-name -> category mapping ------------------------------------------------


def _canonical_name(name: str) -> str:
    """Lowercased, namespace-stripped, ``_``-joined form of an op name.

    CamelCase boundaries become token breaks so autograd-node spellings
    resolve with the same rules as aten ones: ``aten::max_pool2d`` ->
    ``max_pool2d``; ``CrossEntropyLossBackward0`` ->
    ``cross_entropy_loss_backward0``; ``optimizer.step#SGD.step`` ->
    ``optimizer_step_sgd_step``.
    """
    split = _CAMEL_BOUNDARY.sub("_", name)
    return _NON_ALNUM.sub("_", split.lower()).strip("_")


@dataclass(frozen=True)
class OpRule:
    """One mapping rule: a name pattern and the taxonomy it implies.

    ``pattern`` containing an underscore matches as a substring of the
    canonical name (``cross_entropy`` in ``cross_entropy_loss_backward``);
    a single-token pattern matches when any ``_``-token of the canonical
    name *starts with* it (``pool`` matches ``max_pool2d`` but ``mul``
    does not match ``accumulategrad``). ``pass_`` / ``stage`` optionally
    pin the pass/stage for matching ops (optimizer rules use this).
    """

    pattern: str
    category: KernelCategory
    pass_: str | None = None
    stage: str | None = None

    def matches(self, canonical: str, tokens: tuple[str, ...]) -> bool:
        if "_" in self.pattern:
            return self.pattern in canonical
        return any(tok.startswith(self.pattern) for tok in tokens)


#: Ordered default rules — first match wins. Matmul-ish rules precede the
#: generic elementwise tail so ``addmm`` resolves GEMM before ``add``.
DEFAULT_OP_RULES: tuple[OpRule, ...] = (
    # convolutions / normalizations
    OpRule("conv", KernelCategory.CONV),
    OpRule("batch_norm", KernelCategory.BNORM),
    OpRule("batchnorm", KernelCategory.BNORM),
    OpRule("layer_norm", KernelCategory.BNORM),
    OpRule("layernorm", KernelCategory.BNORM),
    OpRule("group_norm", KernelCategory.BNORM),
    OpRule("instance_norm", KernelCategory.BNORM),
    # activations
    OpRule("relu", KernelCategory.RELU),
    OpRule("sigmoid", KernelCategory.ELEWISE),
    OpRule("tanh", KernelCategory.ELEWISE),
    OpRule("gelu", KernelCategory.ELEWISE),
    OpRule("silu", KernelCategory.ELEWISE),
    OpRule("softmax", KernelCategory.REDUCE),
    # pooling
    OpRule("pool", KernelCategory.POOLING),
    # matrix multiplies (before the elementwise tail: addmm vs add)
    OpRule("gemm", KernelCategory.GEMM),
    OpRule("matmul", KernelCategory.GEMM),
    OpRule("linear", KernelCategory.GEMM),
    OpRule("addmm", KernelCategory.GEMM),
    OpRule("baddbmm", KernelCategory.GEMM),
    OpRule("bmm", KernelCategory.GEMM),
    OpRule("mm", KernelCategory.GEMM),
    OpRule("attention", KernelCategory.GEMM),
    OpRule("einsum", KernelCategory.GEMM),
    OpRule("embedding", KernelCategory.GEMM),
    # losses (pass pinned to the loss pass for forward-named ops;
    # *_backward names are caught by backward detection first)
    OpRule("cross_entropy", KernelCategory.REDUCE, pass_=PASS_LOSS),
    OpRule("nll_loss", KernelCategory.REDUCE, pass_=PASS_LOSS),
    OpRule("mse_loss", KernelCategory.REDUCE, pass_=PASS_LOSS),
    OpRule("loss", KernelCategory.REDUCE, pass_=PASS_LOSS),
    # reductions
    OpRule("sum", KernelCategory.REDUCE),
    OpRule("mean", KernelCategory.REDUCE),
    OpRule("reduce", KernelCategory.REDUCE),
    OpRule("argmax", KernelCategory.REDUCE),
    OpRule("argmin", KernelCategory.REDUCE),
    OpRule("norm", KernelCategory.REDUCE),
    # optimizer updates
    OpRule("sgd", KernelCategory.ELEWISE, pass_=PASS_OPTIMIZER, stage=STAGE_OPTIMIZER),
    OpRule("adam", KernelCategory.ELEWISE, pass_=PASS_OPTIMIZER, stage=STAGE_OPTIMIZER),
    OpRule("optimizer", KernelCategory.ELEWISE, pass_=PASS_OPTIMIZER,
           stage=STAGE_OPTIMIZER),
    # elementwise tail
    OpRule("add", KernelCategory.ELEWISE),
    OpRule("sub", KernelCategory.ELEWISE),
    OpRule("mul", KernelCategory.ELEWISE),
    OpRule("div", KernelCategory.ELEWISE),
    OpRule("exp", KernelCategory.ELEWISE),
    OpRule("log", KernelCategory.ELEWISE),
    OpRule("sqrt", KernelCategory.ELEWISE),
    OpRule("pow", KernelCategory.ELEWISE),
    OpRule("neg", KernelCategory.ELEWISE),
    OpRule("abs", KernelCategory.ELEWISE),
    OpRule("clamp", KernelCategory.ELEWISE),
    OpRule("cat", KernelCategory.ELEWISE),
    OpRule("concat", KernelCategory.ELEWISE),
    OpRule("stack", KernelCategory.ELEWISE),
    OpRule("dropout", KernelCategory.ELEWISE),
    OpRule("copy", KernelCategory.ELEWISE),
    OpRule("contiguous", KernelCategory.ELEWISE),
    OpRule("reshape", KernelCategory.ELEWISE),
    OpRule("flatten", KernelCategory.ELEWISE),
    OpRule("view", KernelCategory.ELEWISE),
    OpRule("transpose", KernelCategory.ELEWISE),
    OpRule("permute", KernelCategory.ELEWISE),
    OpRule("sin", KernelCategory.ELEWISE),
    OpRule("cos", KernelCategory.ELEWISE),
)


class OpMappingRegistry:
    """Ordered, overridable op-name -> (category, pass, stage) mapping.

    Resolution order: the exact-name table first (canonical-name
    equality), then the ordered rule list, first match wins. User rules
    registered via :meth:`register` (or ``--op-map``) are *prepended*, so
    they override the defaults. Resolutions are memoized per registry.
    """

    def __init__(self, rules: tuple[OpRule, ...] | list[OpRule] = DEFAULT_OP_RULES):
        self._rules: list[OpRule] = list(rules)
        self._exact: dict[str, OpRule] = {}
        self._memo: dict[str, OpRule | None] = {}
        self._digest: str | None = None

    def register(self, pattern: str, category: KernelCategory | str,
                 pass_: str | None = None, stage: str | None = None,
                 exact: bool = False) -> None:
        """Prepend a rule (or pin an exact canonical name)."""
        if isinstance(category, str):
            cat = _CATEGORY_BY_NAME.get(category.lower())
            if cat is None:
                raise IngestError(
                    f"unknown kernel category {category!r}; "
                    f"valid: {sorted(c.value for c in KernelCategory)}")
            category = cat
        if pass_ is not None and pass_ not in PASSES:
            raise IngestError(f"unknown pass {pass_!r}; valid: {list(PASSES)}")
        rule = OpRule(pattern if exact else pattern.lower(), category,
                      pass_=pass_, stage=stage)
        if exact:
            self._exact[_canonical_name(pattern)] = rule
        else:
            self._rules.insert(0, rule)
        self._memo.clear()
        self._digest = None

    def resolve(self, name: str) -> OpRule | None:
        """First matching rule for ``name``, or None (-> unknown bucket)."""
        memo = self._memo.get(name, _UNRESOLVED)
        if memo is not _UNRESOLVED:
            return memo
        canonical = _canonical_name(name)
        rule = self._exact.get(canonical)
        if rule is None:
            tokens = tuple(canonical.split("_"))
            for candidate in self._rules:
                if candidate.matches(canonical, tokens):
                    rule = candidate
                    break
        self._memo[name] = rule
        return rule

    @property
    def rule_list(self) -> tuple[OpRule, ...]:
        """The ordered pattern rules (first match wins), read-only."""
        return tuple(self._rules)

    @property
    def exact_names(self) -> tuple[str, ...]:
        """The pinned canonical names, read-only."""
        return tuple(self._exact)

    def copy(self) -> "OpMappingRegistry":
        dup = OpMappingRegistry(self._rules)
        dup._exact = dict(self._exact)
        dup._digest = self._digest
        return dup

    def digest(self) -> str:
        """Content hash of the rule set — part of ingest cache keys
        (computed once per rule set: :meth:`register` clears it)."""
        if self._digest is None:
            payload = json.dumps(
                [[r.pattern, r.category.value, r.pass_, r.stage] for r in self._rules]
                + [["=" + k, r.category.value, r.pass_, r.stage]
                   for k, r in sorted(self._exact.items())],
                separators=(",", ":"),
            )
            self._digest = hashlib.sha256(payload.encode()).hexdigest()[:12]
        return self._digest

    @classmethod
    def from_mapping(cls, mapping: dict[str, str],
                     base: "OpMappingRegistry | None" = None) -> "OpMappingRegistry":
        """Build a registry from a plain ``{pattern: category}`` dict
        (the ``mmbench ingest --op-map FILE`` format) layered over ``base``
        (default: the default rules)."""
        registry = (base or default_registry()).copy()
        for pattern, category in mapping.items():
            registry.register(pattern, category)
        return registry


_UNRESOLVED = object()


@functools.cache
def _default_digest() -> str:
    return OpMappingRegistry(DEFAULT_OP_RULES).digest()


def default_registry() -> OpMappingRegistry:
    """A fresh registry with the default rules (safe to mutate); the
    default rules are hashed once per process."""
    registry = OpMappingRegistry(DEFAULT_OP_RULES)
    registry._digest = _default_digest()
    return registry


# -- pass / stage / modality heuristics -----------------------------------------

_BACKWARD_SUBSTRINGS = ("backward", "accumulate_grad", "autograd")
_BACKWARD_TOKENS = ("bwd",)
_OPTIMIZER_SUBSTRINGS = ("optimizer",)
_OPTIMIZER_TOKENS = ("sgd", "adam", "adamw", "rmsprop", "adagrad")
_LOSS_SUBSTRINGS = ("cross_entropy", "nll", "mse_loss")
_LOSS_TOKENS = ("loss",)

_STAGE_TOKENS = (
    (("encoder", "backbone", "stem"), STAGE_ENCODER),
    (("fusion", "fuse"), STAGE_FUSION),
    (("head", "classifier", "decoder", "projector"), STAGE_HEAD),
    (("preprocess", "dataloader", "augment"), STAGE_PREPROCESS),
)

_MODALITY_TOKENS = (
    (("image", "vision", "visual", "img", "rgb", "camera"), "image"),
    (("text", "token", "word", "bert", "language"), "text"),
    (("audio", "speech", "spectrogram", "wav"), "audio"),
    (("video", "clip", "frames"), "video"),
    (("touch", "tactile", "haptic"), "touch"),
    (("lidar", "pointcloud", "point_cloud", "depth"), "lidar"),
)


# A graph repeats a few op names over many nodes: each heuristic runs once
# per distinct name, as OpMappingRegistry.resolve does for rules.
_NAME_CACHE = 4096


@functools.lru_cache(maxsize=_NAME_CACHE)
def detect_pass(name: str) -> str:
    """Name-based pass detection (backward > optimizer > loss > forward)."""
    canonical = _canonical_name(name)
    tokens = set(canonical.split("_"))
    if any(s in canonical for s in _BACKWARD_SUBSTRINGS) or tokens & set(_BACKWARD_TOKENS):
        return PASS_BACKWARD
    if any(s in canonical for s in _OPTIMIZER_SUBSTRINGS) or tokens & set(_OPTIMIZER_TOKENS):
        return PASS_OPTIMIZER
    if any(s in canonical for s in _LOSS_SUBSTRINGS) or tokens & set(_LOSS_TOKENS):
        return PASS_LOSS
    return PASS_FORWARD


@functools.lru_cache(maxsize=_NAME_CACHE)
def _detect_stage(name: str) -> str | None:
    canonical = _canonical_name(name)
    tokens = set(canonical.split("_"))
    for markers, stage in _STAGE_TOKENS:
        if tokens & set(markers):
            return stage
    return None


@functools.lru_cache(maxsize=_NAME_CACHE)
def _detect_modality(name: str) -> str | None:
    canonical = _canonical_name(name)
    tokens = set(canonical.split("_"))
    for markers, modality in _MODALITY_TOKENS:
        if tokens & set(markers) or any("_" in m and m in canonical for m in markers):
            return modality
    return None


# -- shape / dtype handling -----------------------------------------------------


def _shapes(raw, node_id, source, which: str) -> list[tuple[int, ...]]:
    """Validate a list of shapes (each a list of non-negative ints)."""
    if raw is None:
        return []
    if not isinstance(raw, (list, tuple)):
        raise IngestError(f"{which} must be a list of shapes, got {type(raw).__name__}",
                          node_id, source)
    shapes = []
    for shape in raw:
        if not isinstance(shape, (list, tuple)):
            raise IngestError(f"each {which} entry must be a list of ints, "
                              f"got {shape!r}", node_id, source)
        dims = []
        for dim in shape:
            if isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
                raise IngestError(f"invalid dimension {dim!r} in {which}",
                                  node_id, source)
            dims.append(dim)
        if math.prod(dims) >= _INT64_LIMIT:
            raise IngestError(f"{which} shape has 2**63 or more elements",
                              node_id, source)
        shapes.append(tuple(dims))
    return shapes


def _elems(shape: tuple[int, ...]) -> int:
    return int(math.prod(shape)) if shape else 1


def _dtype_bytes(dtype, node_id, source) -> int:
    if dtype is None:
        return DTYPE_BYTES["float32"]
    size = DTYPE_BYTES.get(str(dtype).lower())
    if size is None:
        raise IngestError(f"unknown dtype {dtype!r}; known: "
                          f"{sorted(set(DTYPE_BYTES))}", node_id, source)
    return size


def _io_bytes(shapes, dtypes, node_id, source, which: str) -> tuple[int, float]:
    """(total elements, total bytes) across shapes with per-shape dtypes."""
    if dtypes is not None and not isinstance(dtypes, (list, tuple)):
        dtypes = [dtypes] * len(shapes)
    elems = 0
    nbytes = 0.0
    for i, shape in enumerate(shapes):
        dtype = None
        if dtypes is not None and i < len(dtypes):
            dtype = dtypes[i]
        n = _elems(shape)
        elems += n
        nbytes += n * _dtype_bytes(dtype, node_id, source)
    return elems, nbytes


# -- work-descriptor estimation --------------------------------------------------


def estimate_flops(category: KernelCategory, in_shapes, out_shapes,
                   n_inputs: int) -> float:
    """Per-category FLOP estimate from shapes (see ``docs/ingest.md``).

    Deliberately simple, deterministic formulas — the goal is a defensible
    roofline input for graphs that carry no measured work, not an exact
    replay. Explicit per-node ``flops`` always bypasses this.
    """
    out_elems = sum(_elems(s) for s in out_shapes)
    in_elems = sum(_elems(s) for s in in_shapes)
    base = out_elems if out_shapes else in_elems
    if category == KernelCategory.GEMM:
        k = in_shapes[0][-1] if in_shapes and in_shapes[0] else 1
        return 2.0 * base * max(k, 1)
    if category == KernelCategory.CONV:
        if len(in_shapes) >= 2 and in_shapes[1]:
            weight = in_shapes[1]
            per_output = _elems(weight) / max(weight[0], 1)
            return 2.0 * base * max(per_output, 1.0)
        return 2.0 * base
    if category == KernelCategory.BNORM:
        return 5.0 * base
    if category == KernelCategory.RELU:
        return float(base)
    if category == KernelCategory.POOLING:
        return float(in_elems if in_shapes else base)
    if category == KernelCategory.REDUCE:
        return float(in_elems if in_shapes else base)
    if category == KernelCategory.ELEWISE:
        return float(base * max(1, n_inputs))
    return float(base)  # OTHER: conservative elementwise-ish cost


def _positive_float(node, key, node_id, source, default=None):
    """Fetch an explicit numeric field, rejecting negatives/non-numbers."""
    if key not in node:
        return default
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise IngestError(f"{key} must be a number, got {value!r}", node_id, source)
    if not 0 <= value <= _FLOAT_MAX:  # NaN, infinities, oversized ints
        raise IngestError(f"{key} must be finite and non-negative, got {value!r}",
                          node_id, source)
    return float(value)


def _attrs(node, node_id, source) -> dict:
    """A node's ``attrs``: an object, null or absent (-> empty)."""
    attrs = node.get("attrs")
    if attrs is None:
        return {}
    if not isinstance(attrs, dict):
        raise IngestError(f"attrs must be an object, got {attrs!r}", node_id, source)
    return dict(attrs)


def _label(node, key, node_id, source, default=None, nullable=False):
    """A stage/modality label: a non-empty string (or null if ``nullable``)."""
    value = node.get(key, default)
    if value is None and nullable:
        return None
    if not isinstance(value, str) or not value:
        kind = "a non-empty string or null" if nullable else "a non-empty string"
        raise IngestError(f"{key} must be {kind}, got {value!r}", node_id, source)
    return value


# -- graph loading ---------------------------------------------------------------


@dataclass(frozen=True)
class _GraphFile:
    """A graph file read once: its bytes and their sha256.

    :meth:`TraceStore.get_or_ingest` keys its entry on ``digest`` and, on
    a miss, hands this to :func:`ingest_graph`, so the key and the parsed
    graph come from one read of the file and one hash of its bytes.
    """

    name: str  # the path as the caller spelled it
    raw: bytes
    digest: str

    @classmethod
    def read(cls, source) -> "_GraphFile":
        try:
            raw = Path(source).read_bytes()
        except OSError as exc:
            raise IngestError(f"cannot read graph file: {exc}",
                              source=str(Path(source))) from exc
        return cls(str(source), raw, hashlib.sha256(raw).hexdigest())

    def parse(self) -> dict:
        where = str(Path(self.name))
        try:
            graph = json.loads(self.raw.decode("utf-8"))
        except ValueError as exc:  # also bad UTF-8 or an int past Python's digit limit
            raise IngestError(f"invalid JSON: {exc}", source=where) from exc
        if not isinstance(graph, dict):
            raise IngestError(f"graph root must be a JSON object, got "
                              f"{type(graph).__name__}", source=where)
        return graph


def source_digest(source) -> str:
    """Content digest of a graph source (file bytes, or canonical JSON)."""
    if isinstance(source, dict):
        payload = json.dumps(source, sort_keys=True, separators=(",", ":"),
                             default=str)
        return hashlib.sha256(payload.encode()).hexdigest()
    return _GraphFile.read(source).digest


def _node_field(node: dict, *aliases, default=None):
    for alias in aliases:
        if alias in node:
            return node[alias]
    return default


def _toposort(nodes: list[dict], ids: list, source) -> list[int]:
    """Kahn's algorithm over parent deps; original order breaks ties.

    Returns positions into ``nodes``. Unknown parents and cycles raise
    :class:`IngestError` naming the offending node.
    """
    import heapq

    index_of = {}
    for pos, node_id in enumerate(ids):
        if node_id in index_of:
            raise IngestError("duplicate node id", node_id, source)
        index_of[node_id] = pos

    children: list[list[int]] = [[] for _ in nodes]
    indegree = [0] * len(nodes)
    for pos, node in enumerate(nodes):
        parents = _node_field(node, "parents", "deps", "ctrl_deps", default=[])
        if not isinstance(parents, (list, tuple)):
            raise IngestError(f"parents must be a list, got {parents!r}",
                              ids[pos], source)
        for parent in parents:
            if isinstance(parent, (list, dict)):
                raise IngestError(f"parent id must be a string or number, "
                                  f"got {parent!r}", ids[pos], source)
            parent_pos = index_of.get(parent)
            if parent_pos is None:
                raise IngestError(f"unknown parent id {parent!r}", ids[pos], source)
            if parent_pos == pos:
                raise IngestError("node depends on itself", ids[pos], source)
            children[parent_pos].append(pos)
            indegree[pos] += 1

    ready = [pos for pos in range(len(nodes)) if indegree[pos] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        pos = heapq.heappop(ready)
        order.append(pos)
        for child in children[pos]:
            indegree[child] -= 1
            if indegree[child] == 0:
                heapq.heappush(ready, child)
    if len(order) != len(nodes):
        stuck = min(pos for pos in range(len(nodes)) if indegree[pos] > 0)
        raise IngestError("dependency cycle detected", ids[stuck], source)
    return order


# -- results ---------------------------------------------------------------------


@dataclass
class IngestReport:
    """Observable outcome of one ingest — what mapped, what didn't."""

    source: str
    digest: str
    n_nodes: int = 0
    n_kernels: int = 0
    n_host_events: int = 0
    unknown_ops: dict[str, int] = field(default_factory=dict)
    pass_counts: dict[str, int] = field(default_factory=dict)
    stages: list[str] = field(default_factory=list)
    modalities: list[str] = field(default_factory=list)
    unknown_stage_kernels: int = 0

    @property
    def unknown_count(self) -> int:
        return sum(self.unknown_ops.values())

    @property
    def unknown_fraction(self) -> float:
        """Fraction of kernels whose op name no mapping rule matched."""
        return self.unknown_count / self.n_kernels if self.n_kernels else 0.0

    def summary_lines(self) -> list[str]:
        lines = [
            f"ingested {self.source}: {self.n_nodes} nodes -> "
            f"{self.n_kernels} kernels + {self.n_host_events} host events",
            "passes: " + (", ".join(f"{p} {c}" for p, c in self.pass_counts.items())
                          or "none"),
        ]
        if self.unknown_count:
            top = sorted(self.unknown_ops.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
            names = ", ".join(f"{name} x{count}" for name, count in top)
            lines.append(f"unknown ops: {self.unknown_count}/{self.n_kernels} "
                         f"kernels ({self.unknown_fraction:.1%}): {names}")
        else:
            lines.append(f"unknown ops: 0/{self.n_kernels} kernels (0.0%)")
        if self.unknown_stage_kernels:
            lines.append(f"stage attribution: {self.unknown_stage_kernels} kernels "
                         f"in the '{STAGE_UNKNOWN}' bucket")
        return lines

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "digest": self.digest,
            "n_nodes": self.n_nodes,
            "n_kernels": self.n_kernels,
            "n_host_events": self.n_host_events,
            "unknown_ops": dict(self.unknown_ops),
            "pass_counts": dict(self.pass_counts),
            "stages": list(self.stages),
            "modalities": list(self.modalities),
            "unknown_stage_kernels": self.unknown_stage_kernels,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "IngestReport":
        return cls(**payload)


@dataclass
class IngestedGraph:
    """An external execution graph converted to a native trace."""

    trace: Trace
    name: str
    batch_size: int
    parameters: int
    parameter_bytes: int
    input_bytes: int
    modalities: list[str]
    report: IngestReport
    topo_order: tuple = ()  # node ids in emission (topological) order


# -- the loader ------------------------------------------------------------------


def ingest_graph(source, registry: OpMappingRegistry | None = None,
                 name: str | None = None) -> IngestedGraph:
    """Parse one execution-graph JSON into a native :class:`Trace`.

    ``source`` is a file path or an already-parsed dict (the trace store
    passes the file it already read to key the entry). ``registry``
    overrides the default op-mapping rules. Raises :class:`IngestError`
    on any malformed input, naming the offending node.
    """
    if isinstance(source, dict):
        graph, digest, origin = source, source_digest(source), "<dict>"
    else:
        if not isinstance(source, _GraphFile):
            source = _GraphFile.read(source)
        graph, digest, origin = source.parse(), source.digest, source.name
    origin = name or origin
    label = Path(origin).name if origin != "<dict>" else origin
    registry = registry if registry is not None else default_registry()

    raw_nodes = graph.get("nodes")
    if raw_nodes is None:
        raise IngestError("graph has no 'nodes' list", source=label)
    if not isinstance(raw_nodes, list):
        raise IngestError(f"'nodes' must be a list, got {type(raw_nodes).__name__}",
                          source=label)

    ids = []
    for pos, node in enumerate(raw_nodes):
        if not isinstance(node, dict):
            raise IngestError(f"node #{pos} must be an object, got {node!r}",
                              source=label)
        node_id = node.get("id")
        if node_id is None:
            raise IngestError(f"node #{pos} has no 'id'", source=label)
        if isinstance(node_id, (list, dict)):
            raise IngestError(f"node #{pos} id must be a string or number, "
                              f"got {node_id!r}", source=label)
        ids.append(node_id)

    order = _toposort(raw_nodes, ids, label)

    kernel_rows: list[tuple] = []
    host_rows: list[tuple] = []
    report = IngestReport(source=label, digest=digest, n_nodes=len(raw_nodes))
    stages_seen: dict[str, None] = {}
    modalities_seen: dict[str, None] = {}

    for seq, pos in enumerate(order):
        node = raw_nodes[pos]
        node_id = ids[pos]
        op_name = _node_field(node, "name", "op")
        if not isinstance(op_name, str) or not op_name:
            raise IngestError("node has no 'name'", node_id, label)

        explicit_pass = _node_field(node, "pass", "pass_")
        if explicit_pass is not None and explicit_pass not in PASSES:
            raise IngestError(f"unknown pass {explicit_pass!r}; valid: "
                              f"{list(PASSES)}", node_id, label)

        # -- host-side nodes ---------------------------------------------------
        if node.get("host") or "kind" in node:
            kind_name = node.get("kind")
            kind = _HOST_KIND_BY_NAME.get(str(kind_name).lower())
            if kind is None:
                raise IngestError(
                    f"unknown host op kind {kind_name!r}; valid: "
                    f"{sorted(k.value for k in HostOpKind)}", node_id, label)
            host_rows.append((
                kind,
                _positive_float(node, "bytes", node_id, label, default=0.0),
                op_name,
                _label(node, "stage", node_id, label, default=STAGE_ENCODER),
                _label(node, "modality", node_id, label, nullable=True),
                explicit_pass or PASS_FORWARD,
                seq,
                _attrs(node, node_id, label),
            ))
            continue

        # -- kernel nodes --------------------------------------------------------
        in_shapes = _shapes(_node_field(node, "input_shapes", "inputs"),
                            node_id, label, "input_shapes")
        out_shapes = _shapes(_node_field(node, "output_shapes", "outputs"),
                             node_id, label, "output_shapes")
        in_dtypes = _node_field(node, "input_dtypes", "input_types")
        out_dtypes = _node_field(node, "output_dtypes", "output_types")

        rule = registry.resolve(op_name)
        explicit_category = node.get("category")
        if explicit_category is not None:
            category = _CATEGORY_BY_NAME.get(str(explicit_category).lower())
            if category is None:
                raise IngestError(
                    f"unknown kernel category {explicit_category!r}; valid: "
                    f"{sorted(c.value for c in KernelCategory)}", node_id, label)
        elif rule is not None:
            category = rule.category
        else:
            category = KernelCategory.OTHER
            report.unknown_ops[op_name] = report.unknown_ops.get(op_name, 0) + 1

        # Pass: explicit field > name detection > rule default > forward.
        if explicit_pass is not None:
            pass_ = explicit_pass
        else:
            pass_ = detect_pass(op_name)
            if pass_ == PASS_FORWARD and rule is not None and rule.pass_:
                pass_ = rule.pass_

        # Stage: explicit field > rule default > name heuristic >
        # optimizer-pass implication > the reported 'unknown' bucket.
        if "stage" in node:
            stage = _label(node, "stage", node_id, label)
        elif rule is not None and rule.stage:
            stage = rule.stage
        else:
            stage = _detect_stage(op_name)
            if stage is None:
                stage = STAGE_OPTIMIZER if pass_ == PASS_OPTIMIZER else STAGE_UNKNOWN
        if stage == STAGE_UNKNOWN:
            report.unknown_stage_kernels += 1

        # Modality: explicit (null means "explicitly none") > name heuristic.
        if "modality" in node:
            modality = _label(node, "modality", node_id, label, nullable=True)
        else:
            modality = _detect_modality(op_name)

        # Work descriptors: explicit values verbatim, else shape/dtype
        # estimation. Dtype validation runs whenever bytes are estimated.
        flops = _positive_float(node, "flops", node_id, label)
        bytes_read = _positive_float(node, "bytes_read", node_id, label)
        bytes_written = _positive_float(node, "bytes_written", node_id, label)
        if flops is None:
            flops = estimate_flops(category, in_shapes, out_shapes, len(in_shapes))
        if bytes_read is None:
            _, bytes_read = _io_bytes(in_shapes, in_dtypes, node_id, label, "input")
        if bytes_written is None:
            _, bytes_written = _io_bytes(out_shapes, out_dtypes, node_id, label,
                                         "output")
        threads = _positive_float(node, "threads", node_id, label)
        if threads is None:
            threads = sum(_elems(s) for s in out_shapes) or \
                sum(_elems(s) for s in in_shapes)
        if threads >= _INT64_LIMIT:
            raise IngestError(f"threads must be below 2**63, got {threads:g}",
                              node_id, label)
        coalesced = _positive_float(node, "coalesced_fraction", node_id, label,
                                    default=1.0)
        reuse = _positive_float(node, "reuse_factor", node_id, label, default=1.0)
        if not 0.0 < coalesced <= 1.0:
            raise IngestError(f"coalesced_fraction must be in (0, 1], got "
                              f"{coalesced}", node_id, label)
        if reuse <= 0.0:
            raise IngestError(f"reuse_factor must be positive, got {reuse}",
                              node_id, label)

        kernel_rows.append((
            op_name, category, float(flops), float(bytes_read),
            float(bytes_written), max(1, int(threads)), float(coalesced),
            float(reuse), stage, modality, pass_, seq,
            _attrs(node, node_id, label),
        ))
        report.pass_counts[pass_] = report.pass_counts.get(pass_, 0) + 1
        stages_seen.setdefault(stage)
        if modality is not None:
            modalities_seen.setdefault(modality)

    report.n_kernels = len(kernel_rows)
    report.n_host_events = len(host_rows)
    report.stages = list(stages_seen)
    report.modalities = list(modalities_seen)

    # -- graph-level metadata ----------------------------------------------------
    graph_name = graph.get("name") or (Path(origin).stem if origin != "<dict>"
                                       else "graph")
    batch_size = graph.get("batch_size", 1)
    if isinstance(batch_size, bool) or not isinstance(batch_size, int) \
            or not 1 <= batch_size < _INT64_LIMIT:
        raise IngestError(f"batch_size must be a positive int below 2**63, "
                          f"got {batch_size!r}", source=label)
    model_meta = graph.get("model") or {}
    if not isinstance(model_meta, dict):
        raise IngestError(f"'model' must be an object, got {model_meta!r}",
                          source=label)
    modalities = model_meta.get("modalities") or report.modalities
    if not isinstance(modalities, (list, tuple)) or \
            not all(isinstance(m, str) for m in modalities):
        raise IngestError(f"model.modalities must be a list of strings, "
                          f"got {modalities!r}", source=label)

    def _model_count(key: str) -> int:
        # Same contract as node-level descriptors: finite, non-negative,
        # numeric. These feed the peak-memory model, so a negative or
        # garbage value silently corrupts every priced run downstream.
        value = model_meta.get(key, 0)
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not 0 <= value <= _FLOAT_MAX:
            raise IngestError(
                f"model.{key} must be a finite non-negative number, "
                f"got {value!r}", source=label)
        return int(value)

    return IngestedGraph(
        trace=Trace.from_columns(TraceColumns.from_rows(kernel_rows, host_rows)),
        name=str(graph_name),
        batch_size=batch_size,
        parameters=_model_count("parameters"),
        parameter_bytes=_model_count("parameter_bytes"),
        input_bytes=_model_count("input_bytes"),
        modalities=list(modalities),
        report=report,
        topo_order=tuple(ids[pos] for pos in order),
    )
