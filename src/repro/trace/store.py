"""Content-addressed, disk-persistent trace cache ("trace once, price anywhere").

Traces are device-independent, so one capture can be re-priced on every
device model — but before this module each consumer kept its own private
memo (the serving cost model's module-level dicts, ad-hoc per-analysis
re-captures). :class:`TraceStore` is the single cache they all share now:

* **Keyed by content**, not identity: ``(workload, fusion | unimodal,
  batch size, seed, backend, code fingerprint)`` canonicalized to JSON and
  hashed. The code fingerprint covers every module that determines the
  emitted event stream, so editing an op's FLOP accounting invalidates
  stale traces automatically instead of silently serving them.
* **Two tiers**: an in-process dict for hot lookups, plus an optional
  on-disk tier that survives across processes — point ``cache_dir`` (or
  ``$MMBENCH_CACHE_DIR``) at a directory and batch sweeps warm-start from
  earlier runs. The disk form is **binary columnar**
  (:mod:`repro.trace.binfmt`): one ``.mmt`` file per digest whose column
  blocks memory-map straight into read-only
  :class:`~repro.trace.columns.TraceColumns` views — no JSON parse, no
  event materialization. It is the only format: the store is a cache,
  so a file in any other format is a miss that recaptures.
* **Observable**: ``stats`` counts hits / misses / captures / disk hits /
  corrupt files, surfaced by the CLI's cache-stats line and asserted by
  tests. Corrupt or truncated files are quarantined (renamed to
  ``*.corrupt``), never silently re-served.

A stored entry carries the trace plus the model-derived scalars the
pricing path needs (parameter count/bytes, input bytes, modalities), so
replaying a cached trace requires no model object at all.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.trace import binfmt
from repro.trace.tracer import Trace, Tracer

logger = logging.getLogger(__name__)

#: The disk schema: binary columnar ``.mmt`` files (repro.trace.binfmt) —
#: crc32-checked little-endian column blocks that memory-map zero-copy into
#: TraceColumns, with string tables interned corpus-wide in an
#: ``interning.jsonl`` sidecar. Files of any other version are quarantined.
SCHEMA_VERSION = binfmt.FORMAT_VERSION

#: Errors that mean "this cache file is corrupt", as opposed to missing.
_CORRUPT_ERRORS = (OSError, EOFError, ValueError, KeyError, TypeError)

_FINGERPRINT: str | None = None


def fingerprint_roots() -> list[Path]:
    """The source files whose text decides the emitted trace events.

    The op library and its kernel table, the layers built on it, the
    parameter order and counts (``nn/module.py``), the workload definitions
    and input shapes, the capture recipe (this module: ``eval()``,
    ``no_grad()`` and the batch draw; the training step's pass scoping and
    step order) and the event records themselves: a change to any of them
    can change the event stream. ``nn/init.py`` is left out: it draws
    weight values only, and events are shape-derived.
    """
    pkg_dir = Path(__file__).resolve().parents[1]
    nn_dir = pkg_dir / "nn"
    return [
        nn_dir / "functional.py",
        nn_dir / "ops.py",
        nn_dir / "backend.py",
        nn_dir / "tensor.py",
        nn_dir / "module.py",
        # Training captures also depend on the optimizer update and loss
        # kernels these modules emit and on the loss selection.
        nn_dir / "optim.py",
        nn_dir / "losses.py",
        pkg_dir / "profiling" / "training.py",
        pkg_dir / "core" / "train.py",
        pkg_dir / "trace" / "store.py",
        pkg_dir / "trace" / "columns.py",
        pkg_dir / "trace" / "events.py",
        # Ingest + graph export determine the event stream of ingested
        # entries exactly as the op library does for captured ones.
        pkg_dir / "trace" / "ingest.py",
        pkg_dir / "export" / "graph.py",
        pkg_dir / "trace" / "tracer.py",
        pkg_dir / "data" / "synthetic.py",
        pkg_dir / "data" / "shapes.py",
        *sorted((nn_dir / "layers").glob("*.py")),
        *sorted((pkg_dir / "workloads").glob("*.py")),
    ]


def code_fingerprint() -> str:
    """Hash of the sources that determine emitted trace events
    (:func:`fingerprint_roots`): editing any of them changes every cache
    key, so a stale trace is recaptured instead of silently served."""
    global _FINGERPRINT
    if _FINGERPRINT is None:
        digest = hashlib.sha256()
        for path in fingerprint_roots():
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        _FINGERPRINT = digest.hexdigest()[:12]
    return _FINGERPRINT


def capture_inference(model, batch) -> Trace:
    """Trace one inference forward pass of ``model`` over ``batch``.

    The capture recipe: the model in eval mode, its forward under
    ``no_grad``. Every inference capture (the store's, the profiler's and
    the FLOP counter's) runs this function.
    """
    from repro import nn

    tracer = Tracer()
    model.eval()
    with tracer.activate(), nn.no_grad():
        model(batch)
    return tracer.finish()


@dataclass(frozen=True)
class TraceKey:
    """The content-addressed identity of one captured trace.

    ``mode`` distinguishes execution paths over the same model build:
    ``"inference"`` is a traced forward pass; ``"train:<optimizer>"`` is a
    full traced training step (forward + loss + backward + optimizer), so
    training captures never collide with inference captures of the same
    (workload, batch, seed, backend).
    """

    workload: str
    fusion: str | None
    unimodal: str | None
    batch_size: int
    seed: int
    backend: str
    code_version: str
    mode: str = "inference"

    def as_dict(self) -> dict:
        """The fields by name (``dataclasses.asdict`` without its deep copy)."""
        return {"workload": self.workload, "fusion": self.fusion,
                "unimodal": self.unimodal, "batch_size": self.batch_size,
                "seed": self.seed, "backend": self.backend,
                "code_version": self.code_version, "mode": self.mode}

    def canonical(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()


@dataclass
class StoredTrace:
    """A cached trace plus the model scalars pricing needs.

    ``extra`` carries what must survive warm cache hits beyond the
    scalars: every entry records the batch its trace ran at
    (``extra["batch_size"]``, read as :attr:`batch_size`: the key's batch
    for a capture, the graph's native batch for an ingested entry), and
    the ingest path stores its :class:`~repro.trace.ingest.IngestReport`
    (unknown-op bucket, pass counts), so a re-run against a warm store can
    still surface the unknown-op fraction.
    """

    trace: Trace
    model_name: str
    parameters: int
    parameter_bytes: int
    input_bytes: int
    modalities: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def batch_size(self) -> int:
        """The batch the trace ran at; pricing at another batch scales the
        trace by the ratio (:func:`repro.profiling.profiler.price_stored`)."""
        return self.extra["batch_size"]


# -- the store ----------------------------------------------------------------


class TraceStore:
    """Two-tier (memory + optional disk) content-addressed trace cache."""

    #: Sidecar file holding the corpus-wide interned string table.
    INTERNING_SIDECAR = "interning.jsonl"

    def __init__(self, cache_dir: str | os.PathLike | None = None):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._interner: binfmt.StringInterner | None = None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            self._interner = binfmt.StringInterner(
                self.cache_dir / self.INTERNING_SIDECAR)
        self._memory: dict[str, StoredTrace] = {}
        self._models: dict[tuple, object] = {}
        self.stats = {"hits": 0, "misses": 0, "captures": 0, "disk_hits": 0,
                      "corrupt": 0}

    # -- keys -----------------------------------------------------------------

    def make_key(
        self,
        workload: str,
        fusion: str | None = None,
        unimodal: str | None = None,
        batch_size: int = 1,
        seed: int = 0,
        backend: str | None = None,
        mode: str = "inference",
    ) -> TraceKey:
        """Build a normalized key (default fusion resolved, backend pinned)."""
        from repro.nn.backend import resolve_backend
        from repro.workloads.registry import get_workload

        info = get_workload(workload)
        if unimodal is not None:
            fusion = None
        elif fusion is None:
            # fusion=None and the default fusion name build the identical
            # model; normalize so they share one entry.
            fusion = info.default_fusion
        return TraceKey(
            workload=workload,
            fusion=fusion,
            unimodal=unimodal,
            batch_size=int(batch_size),
            seed=int(seed),
            backend=resolve_backend(backend),
            code_version=code_fingerprint(),
            mode=mode,
        )

    # -- model memoization -----------------------------------------------------

    def model(self, workload: str, fusion: str | None = None,
              unimodal: str | None = None, seed: int = 0):
        """Build (or reuse) the model a key describes."""
        from repro.workloads.registry import get_workload

        info = get_workload(workload)
        if unimodal is None and fusion is None:
            fusion = info.default_fusion
        key = (workload, fusion, unimodal, seed)
        if key not in self._models:
            if unimodal is not None:
                self._models[key] = info.build_unimodal(unimodal, seed=seed)
            else:
                self._models[key] = info.build(fusion, seed=seed)
        return self._models[key]

    # -- lookup / insert --------------------------------------------------------

    def _binary_path(self, digest: str) -> Path:
        return self.cache_dir / f"{digest}{binfmt.SUFFIX}"

    def _quarantine(self, path: Path, exc: Exception) -> None:
        """A cache file failed to decode: it is corrupt, not missing.

        Rename it aside (``*.corrupt``) so the bytes survive for a
        postmortem but can never poison another warm run, count it, and
        log — a truncated write must fail loudly exactly once.
        """
        self.stats["corrupt"] += 1
        quarantined = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, quarantined)
            where = f"quarantined as {quarantined.name}"
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass
            where = "removed"
        logger.warning("corrupt trace cache file %s (%s: %s); %s",
                       path.name, type(exc).__name__, exc, where)

    def _load_disk_file(self, path: Path) -> StoredTrace | None:
        """Decode one disk-tier file, quarantining on failure. Returns None
        if the file is missing or corrupt."""
        try:
            _, entry = binfmt.read_entry(path, interner=self._interner)
        except FileNotFoundError:
            return None
        except _CORRUPT_ERRORS as exc:
            self._quarantine(path, exc)
            return None
        return entry

    def peek(self, path: Path) -> StoredTrace | None:
        """Decode one disk entry (a path :meth:`entries` lists), or None
        when it is unreadable.

        Unlike a lookup, a corrupt file is left where it is, neither
        quarantined nor counted: inspection commands (``mmbench store
        lint``) leave the corpus as they found it, and ``mmbench store
        gc`` is the command that removes files.
        """
        try:
            return binfmt.read_entry(path, interner=self._interner)[1]
        except _CORRUPT_ERRORS:
            return None

    def get(self, key: TraceKey) -> StoredTrace | None:
        """Cached entry for ``key``, or None (counts a hit or a miss)."""
        digest = key.digest()
        entry = self._memory.get(digest)
        if entry is not None:
            self.stats["hits"] += 1
            return entry
        if self.cache_dir is not None:
            entry = self._load_disk_file(self._binary_path(digest))
            if entry is not None:
                self._memory[digest] = entry
                self.stats["hits"] += 1
                self.stats["disk_hits"] += 1
                return entry
        self.stats["misses"] += 1
        return None

    def put(self, key: TraceKey, stored: StoredTrace) -> None:
        digest = key.digest()
        self._memory[digest] = stored
        if self.cache_dir is None:
            return
        # binfmt.write_entry publishes via temp file + atomic rename:
        # concurrent sweeps may race on the same key, but each writes its
        # own file and the final rename is all-or-nothing.
        binfmt.write_entry(self._binary_path(digest), key.as_dict(), stored,
                           interner=self._interner)

    # -- corpus operations ------------------------------------------------------

    def _disk_files(self) -> list[Path]:
        """Disk-tier entries, in digest order."""
        if self.cache_dir is None:
            return []
        return sorted(self.cache_dir.glob(f"*{binfmt.SUFFIX}"))

    def prefetch(self, keys=None) -> int:
        """Map a corpus into the memory tier in one pass.

        With ``keys``, loads exactly those entries (missing ones are
        counted as misses, like :meth:`get`). Without, maps **every**
        readable disk entry — one header parse plus an mmap per file, so
        thousand-trace corpora load in milliseconds. Returns the number of
        entries now resident.
        """
        if keys is not None:
            return sum(1 for key in keys if self.get(key) is not None)
        loaded = 0
        for path in self._disk_files():
            digest = path.name.split(".", 1)[0]
            if digest in self._memory:
                loaded += 1
                continue
            entry = self._load_disk_file(path)
            if entry is None:
                continue
            self._memory[digest] = entry
            self.stats["disk_hits"] += 1
            loaded += 1
        return loaded

    def load_digest(self, digest: str) -> StoredTrace:
        """Load one disk entry by (a unique prefix of) its content digest.

        The lookup side door behind ``mmbench lint <store-key>``: the
        short digests ``mmbench store ls`` prints are valid keys here.
        Raises :class:`KeyError` when the prefix matches zero or several
        entries, or the matched file is unreadable.
        """
        matches = [p for p in self._disk_files()
                   if p.name.split(".", 1)[0].startswith(digest)]
        if not matches:
            raise KeyError(f"no store entry matches digest {digest!r}")
        if len(matches) > 1:
            short = ", ".join(p.name.split(".", 1)[0][:12] for p in matches)
            raise KeyError(f"digest prefix {digest!r} is ambiguous: {short}")
        entry = self._load_disk_file(matches[0])
        if entry is None:
            raise KeyError(f"store entry {matches[0].name} is unreadable "
                           f"(quarantined)")
        return entry

    def entries(self) -> list[dict]:
        """One info dict per disk entry (cheap: headers only, no columns)."""
        current = code_fingerprint()
        infos = []
        for path in self._disk_files():
            digest = path.name.split(".", 1)[0]
            info = {"digest": digest, "bytes": path.stat().st_size,
                    "path": path}
            try:
                header = binfmt.read_header(path)
            except _CORRUPT_ERRORS:
                info.update(status="corrupt", key=None, n=0, host_n=0,
                            stale=False)
                infos.append(info)
                continue
            key = header.get("key") or {}
            info.update(
                status="ok", key=key, n=header["n"], host_n=header["host_n"],
                stale=key.get("code_version") not in (None, current),
            )
            infos.append(info)
        return infos

    def gc(self, stale: bool = True) -> dict:
        """Remove quarantined, torn-write and (optionally) stale entries.

        ``stale`` entries are ones whose key carries a code fingerprint
        other than the current one — no future lookup can ever hit them.
        The interning sidecar is dropped once no entry references it.
        Returns removal counts by reason.
        """
        removed = {"corrupt": 0, "tmp": 0, "stale": 0, "unreadable": 0}
        if self.cache_dir is None:
            return removed
        for path in sorted(self.cache_dir.glob("*.corrupt")):
            path.unlink()
            removed["corrupt"] += 1
        for path in sorted(self.cache_dir.glob("*.tmp")):
            path.unlink()
            removed["tmp"] += 1
        for info in self.entries():
            if info["status"] == "corrupt":
                info["path"].unlink()
                removed["unreadable"] += 1
            elif stale and info["stale"]:
                info["path"].unlink()
                removed["stale"] += 1
        if (self._interner is not None
                and not list(self.cache_dir.glob(f"*{binfmt.SUFFIX}"))):
            try:
                self._interner.path.unlink()
            except OSError:
                pass
            self._interner = binfmt.StringInterner(
                self.cache_dir / self.INTERNING_SIDECAR)
        return removed

    # -- the main entry point -----------------------------------------------------

    def get_or_capture(
        self,
        workload: str,
        fusion: str | None = None,
        unimodal: str | None = None,
        batch_size: int = 1,
        seed: int = 0,
        backend: str | None = None,
    ) -> StoredTrace:
        """Return the cached trace for the key, capturing it on a miss.

        A warm hit skips model building, batch generation and the traced
        forward pass entirely.
        """
        key = self.make_key(workload, fusion, unimodal, batch_size, seed, backend)
        entry = self.get(key)
        if entry is not None:
            return entry

        from repro.data.synthetic import random_batch

        model = self.model(workload, key.fusion, key.unimodal, seed=key.seed)
        batch = random_batch(model.shapes, key.batch_size, seed=key.seed,
                             backend=key.backend)
        entry = StoredTrace(
            trace=capture_inference(model, batch),
            model_name=model.name,
            parameters=model.num_parameters(),
            parameter_bytes=model.parameter_bytes(),
            input_bytes=model.input_bytes(key.batch_size),
            modalities=list(model.modality_names),
            extra={"batch_size": key.batch_size},
        )
        self.stats["captures"] += 1
        self.put(key, entry)
        return entry

    def get_or_capture_training(
        self,
        workload: str,
        fusion: str | None = None,
        unimodal: str | None = None,
        batch_size: int = 8,
        seed: int = 0,
        backend: str | None = None,
        optimizer: str = "adam",
    ) -> StoredTrace:
        """Return the cached *training-step* trace, capturing it on a miss.

        The capture runs one full traced step — forward, loss, backward and
        optimizer update — through :func:`repro.profiling.training.trace_training_step`.
        An eager step mutates parameters, so it runs on a **fresh** model
        build. A meta step mutates nothing (shape-only gradients, no
        numeric update, no running-statistics update, no dropout mask), so
        it reuses the memoized model of :meth:`model` and clears the meta
        gradients afterwards.
        """
        key = self.make_key(workload, fusion, unimodal, batch_size, seed,
                            backend, mode=f"train:{optimizer}")
        entry = self.get(key)
        if entry is not None:
            return entry

        from repro.profiling.training import trace_training_step
        from repro.workloads.registry import get_workload

        if key.backend == "meta":
            model = self.model(workload, key.fusion, key.unimodal, seed=key.seed)
        elif key.unimodal is not None:
            model = get_workload(workload).build_unimodal(key.unimodal, seed=key.seed)
        else:
            model = get_workload(workload).build(key.fusion, seed=key.seed)
        trace = trace_training_step(
            model, batch_size=key.batch_size, seed=key.seed,
            backend=key.backend, optimizer=optimizer,
        )
        if key.backend == "meta":
            model.zero_grad()
        entry = StoredTrace(
            trace=trace,
            model_name=model.name,
            parameters=model.num_parameters(),
            parameter_bytes=model.parameter_bytes(),
            input_bytes=model.input_bytes(key.batch_size),
            modalities=list(model.modality_names),
            extra={"batch_size": key.batch_size},
        )
        self.stats["captures"] += 1
        self.put(key, entry)
        return entry

    def get_or_ingest(self, path, registry=None,
                      lint: bool = True) -> StoredTrace:
        """Return the cached trace for an external graph file, ingesting on
        a miss.

        The key is content-addressed on the *source file digest* plus the
        op-mapping registry digest (a registry override changes the mapped
        event stream, so it must change the key) plus the usual code
        fingerprint. The graph's native batch size and the full
        :class:`~repro.trace.ingest.IngestReport` ride along in
        ``StoredTrace.extra`` so warm hits still report the unknown-op
        fraction.

        Freshly ingested traces are lint-checked before they are cached
        (raising :class:`~repro.lint.core.LintFailure` on errors), so a
        malformed external graph cannot poison the store; ``lint=False``
        opts out. Warm hits skip the check — whatever is cached already
        passed it.
        """
        from pathlib import Path as _Path

        from repro.trace.ingest import _GraphFile, default_registry, ingest_graph

        registry = registry if registry is not None else default_registry()
        # One read and one hash of the file: they give the key and, on a
        # miss, the graph that is parsed.
        source = _GraphFile.read(path)
        key = TraceKey(
            workload=f"graph:{_Path(str(path)).stem}",
            fusion=None,
            unimodal=None,
            batch_size=1,
            seed=0,
            backend="ingest",
            code_version=code_fingerprint(),
            mode=f"ingest:{source.digest}:{registry.digest()}",
        )
        entry = self.get(key)
        if entry is not None:
            return entry

        ingested = ingest_graph(source, registry=registry)
        if lint:
            from repro.lint import check, lint_trace

            check(lint_trace(ingested, source=str(path)),
                  what=f"ingested graph {_Path(str(path)).name!r}")
        entry = StoredTrace(
            trace=ingested.trace,
            model_name=ingested.name,
            parameters=ingested.parameters,
            parameter_bytes=ingested.parameter_bytes,
            input_bytes=ingested.input_bytes,
            modalities=list(ingested.modalities),
            extra={
                "ingest": ingested.report.to_dict(),
                "batch_size": ingested.batch_size,
            },
        )
        self.stats["captures"] += 1
        self.put(key, entry)
        return entry

    # -- maintenance ----------------------------------------------------------------

    def clear(self, disk: bool = False) -> None:
        """Drop memoized traces and models (and optionally the disk tier).

        ``disk=True`` removes the ``.mmt`` entries, quarantined/torn-write
        leftovers and the interning sidecar.
        """
        self._memory.clear()
        self._models.clear()
        if disk and self.cache_dir is not None:
            for pattern in (f"*{binfmt.SUFFIX}", "*.corrupt", "*.tmp",
                            self.INTERNING_SIDECAR):
                for path in self.cache_dir.glob(pattern):
                    try:
                        path.unlink()
                    except OSError:
                        pass
            self._interner = binfmt.StringInterner(
                self.cache_dir / self.INTERNING_SIDECAR)

    def reset_stats(self) -> None:
        for k in self.stats:
            self.stats[k] = 0

    def __len__(self) -> int:
        return len(self._memory)

    def stats_line(self) -> str:
        s = self.stats
        where = str(self.cache_dir) if self.cache_dir else "memory-only"
        line = (
            f"trace store [{where}]: {s['hits']} hits ({s['disk_hits']} disk), "
            f"{s['misses']} misses, {s['captures']} captures"
        )
        if s["corrupt"]:
            line += f", {s['corrupt']} corrupt"
        return line


# -- process-wide default store ------------------------------------------------

_DEFAULT_STORE: TraceStore | None = None


def default_store() -> TraceStore:
    """The process-wide store (disk tier from ``$MMBENCH_CACHE_DIR`` if set)."""
    global _DEFAULT_STORE
    if _DEFAULT_STORE is None:
        _DEFAULT_STORE = TraceStore(os.environ.get("MMBENCH_CACHE_DIR") or None)
    return _DEFAULT_STORE


def set_default_store(store: TraceStore | None) -> TraceStore | None:
    """Replace the process-wide store; returns the previous one."""
    global _DEFAULT_STORE
    prev = _DEFAULT_STORE
    _DEFAULT_STORE = store
    return prev


def configure_default_store(cache_dir: str | os.PathLike | None) -> TraceStore:
    """Point the process-wide store at ``cache_dir`` (None = memory-only)."""
    store = TraceStore(cache_dir)
    set_default_store(store)
    return store
