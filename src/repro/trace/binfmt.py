"""Binary columnar trace files (store format v6) + shared string interning.

The trace store's disk tier stores a trace's columns *as bytes*, in one
fixed layout that a load checks and maps in a single pass:

```
offset 0   magic  b"MMBTRACE"
offset 8   u32 LE format version (6)
offset 12  u32 LE header length H
offset 16  u32 LE crc32 of every byte after this 20-byte prefix
offset 20  header JSON (H bytes, UTF-8)
           zero padding to the next 64-byte boundary
           four row-major column blocks, each 64-byte aligned (BLOCKS):
             kernel float64 (5, n)       KERNEL_COLUMN_SPEC's <f8 columns
             kernel int64   (8, n)       its <i8 columns + the meta codes
             host   float64 (1, host_n)  HOST_COLUMN_SPEC's <f8 column
             host   int64   (6, host_n)  its <i8 columns
           the file ends where the last block ends
```

The header carries everything that is small: the cache key, the model
scalars, ``extra`` provenance, ``n``/``host_n``, the string tables, the
sparse ``host_meta`` dicts and the kernel meta table (the distinct
per-kernel meta dicts; a kernel's meta code indexes it, -1 for none). The
column blocks carry everything that is big, and their offsets follow from
the header length, ``n`` and ``host_n`` alone, so the file holds no column
directory. A load checks the crc before it parses anything, then the
header, the file length and every code row's range, and hands
:class:`~repro.trace.columns.TraceColumns` read-only row views of the
mmap — no copy, no per-event objects. The mmap stays alive as the arrays'
``base``, so an in-flight view survives even if the file is concurrently
replaced (``os.replace`` re-points the directory entry; the mapped inode
is untouched).

String tables (stage / modality / kernel-name / host-name) are interned
*across* traces: a corpus-wide append-only sidecar (``interning.jsonl``)
maps content-addressed 63-bit string ids to strings, and each trace header
stores only the ids. Content addressing makes concurrent appends
coordination-free — two writers interning the same string write the same
id, and duplicate lines are harmless. A standalone file (no sidecar
available) falls back to inlining the strings in its own header.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import tempfile
import zlib
from pathlib import Path

import numpy as np

from repro.trace.columns import (
    CATEGORY_ORDER,
    HOST_COLUMN_SPEC,
    HOST_KIND_ORDER,
    KERNEL_COLUMN_SPEC,
    NO_MODALITY,
    PASS_ORDER,
    TABLE_NAMES,
    TraceColumns,
)

MAGIC = b"MMBTRACE"
FORMAT_VERSION = 6
#: Magic, version, header length and crc32.
PREFIX_LEN = 20
#: Column blocks start on 64-byte boundaries (cache-line / SIMD friendly).
ALIGN = 64

#: Canonical file suffix for binary trace files.
SUFFIX = ".mmt"


def _rows(spec, dtype: str) -> tuple[str, ...]:
    return tuple(name for name, dt in spec if dt == dtype)


#: The column blocks in file order: (row names, dtype, length field). Rows
#: keep their KERNEL_COLUMN_SPEC / HOST_COLUMN_SPEC order; ``meta_codes``
#: indexes the header's kernel meta table (-1: the kernel has no meta).
BLOCKS: tuple[tuple[tuple[str, ...], str, str], ...] = (
    (_rows(KERNEL_COLUMN_SPEC, "<f8"), "<f8", "n"),
    (_rows(KERNEL_COLUMN_SPEC, "<i8") + ("meta_codes",), "<i8", "n"),
    (_rows(HOST_COLUMN_SPEC, "<f8"), "<f8", "host_n"),
    (_rows(HOST_COLUMN_SPEC, "<i8"), "<i8", "host_n"),
)


class TraceFormatError(ValueError):
    """A trace file (or its interning sidecar) cannot be decoded."""


def _align_up(offset: int) -> int:
    return (offset + ALIGN - 1) // ALIGN * ALIGN


def string_id(s: str) -> int:
    """Content-addressed 63-bit id for an interned string."""
    return int.from_bytes(hashlib.sha256(s.encode()).digest()[:8], "little") >> 1


class StringInterner:
    """Corpus-wide append-only string table (the ``interning.jsonl`` sidecar).

    One JSON line per string: ``{"id": <63-bit int>, "s": <string>}``. Ids
    are content hashes, so concurrent writers never need to coordinate —
    appends are single ``O_APPEND`` writes, duplicates are idempotent, and
    a torn trailing line (a crash mid-append) is skipped on read and
    rewritten by the next writer that needs the string; that writer starts
    its append on a fresh line.

    A writer reads the sidecar once, on its first :meth:`intern`, and then
    trusts its own table plus its own appends: a string another process
    appended meanwhile is appended again, as a harmless duplicate. A
    reader (:meth:`resolve`) re-reads on unknown ids, since it needs other
    writers' strings. Each string is hashed at most once per interner:
    ``_ids``, the inverse of ``_by_id``, answers every string already read
    from the sidecar or interned.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self._by_id: dict[int, str] = {}
        self._ids: dict[str, int] = {}
        self._loaded = False

    def _refresh(self) -> None:
        self._loaded = True
        try:
            raw = self.path.read_bytes()
        except OSError:
            return
        lines = [line for line in raw.splitlines() if line.strip()]
        try:
            # One parse for the whole sidecar; a torn line fails it.
            records = json.loads(b"[" + b",".join(lines) + b"]")
            if len(records) == len(lines):
                pairs = [(int(rec["id"]), rec["s"]) for rec in records]
                self._by_id.update(pairs)
                self._ids.update((s, i) for i, s in pairs)
                return
        except (ValueError, KeyError, TypeError):
            pass
        for line in lines:
            try:
                rec = json.loads(line)
                i, s = int(rec["id"]), rec["s"]
                self._by_id[i] = s
                self._ids[s] = i
            except (ValueError, KeyError, TypeError):
                # Torn tail from an in-flight append; the payload it was
                # carrying is re-appended by whoever needed it.
                continue

    def __len__(self) -> int:
        self._refresh()
        return len(self._by_id)

    def intern(self, strings) -> list[int]:
        """Ids for ``strings``, appending any the sidecar lacks."""
        if not self._loaded:
            self._refresh()
        known = self._ids
        ids = [known[s] if s in known else string_id(s) for s in strings]
        new = [(i, s) for i, s in zip(ids, strings) if self._by_id.get(i) != s]
        for i, s in new:
            if i in self._by_id:  # astronomically unlikely hash collision
                raise TraceFormatError(
                    f"string-id collision: {self._by_id[i]!r} vs {s!r}")
        if new:
            blob = "".join(
                json.dumps({"id": i, "s": s}, separators=(",", ":")) + "\n"
                for i, s in new
            ).encode()
            fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
            try:
                # After a torn tail, a glued-on first record would be lost.
                size = os.fstat(fd).st_size
                if size and os.pread(fd, 1, size - 1) != b"\n":
                    blob = b"\n" + blob
                os.write(fd, blob)
            finally:
                os.close(fd)
            for i, s in new:
                self._by_id[i] = s
                known[s] = i
        return ids

    def resolve(self, ids) -> tuple[str, ...]:
        """Strings for ``ids`` (re-reads the sidecar on unknown ids)."""
        try:
            return tuple(map(self._by_id.__getitem__, ids))
        except KeyError:
            self._refresh()
        try:
            return tuple(map(self._by_id.__getitem__, ids))
        except KeyError as exc:
            raise TraceFormatError(
                f"interning sidecar {self.path} is missing string id {exc}"
            ) from None


# -- layout ------------------------------------------------------------------


def _layout(header_len: int, n: int, host_n: int) -> tuple[list[int], int]:
    """Absolute offset of each of :data:`BLOCKS` and the file length, for a
    file whose header is ``header_len`` bytes long."""
    offsets = []
    end = PREFIX_LEN + header_len
    for rows, _, length in BLOCKS:
        end = _align_up(end)
        offsets.append(end)
        end += len(rows) * 8 * (n if length == "n" else host_n)
    return offsets, end


def _block_views(buf, offsets: list[int], n: int, host_n: int) -> list[np.ndarray]:
    """The ``(rows, length)`` array of each block, viewing ``buf``."""
    return [np.ndarray((len(rows), n if length == "n" else host_n), dtype,
                       buffer=buf, offset=offset)
            for (rows, dtype, length), offset in zip(BLOCKS, offsets)]


# -- encoding ------------------------------------------------------------------


def _meta_table(meta: dict[int, dict], n: int) -> tuple[np.ndarray, list[dict]]:
    """Per-kernel meta codes and the distinct meta dicts they index.

    Dicts intern by their items and the values' types, so each keeps its
    key order and ``1``, ``1.0`` and ``true`` stay apart; a dict with an
    unhashable value (a list, from an ingested graph's attrs) interns by
    its JSON text.
    """
    index: dict = {}
    table: list[dict] = []
    picked = []
    for m in meta.values():
        try:
            code = index.setdefault((*m.items(), *map(type, m.values())), len(index))
        except TypeError:
            code = index.setdefault(json.dumps(m), len(index))
        if code == len(table):
            table.append(m)
        picked.append(code)
    codes = np.full(n, -1, dtype=np.int64)
    codes[list(meta)] = picked
    return codes, table


def encode_entry(key_dict: dict | None, stored, interner: StringInterner | None) -> bytes:
    """Serialize a :class:`~repro.trace.store.StoredTrace` to v6 bytes."""
    columns = stored.trace.columns()
    n, host_n = columns.n, columns.host_n
    meta_codes, meta_table = _meta_table(columns.meta, n)

    tables: dict[str, dict] = {}
    for tname in TABLE_NAMES:
        strings = list(getattr(columns, tname))
        if interner is not None:
            tables[tname] = {"ids": interner.intern(strings)}
        else:
            tables[tname] = {"strings": strings}

    header = {
        "key": key_dict,
        "model_name": stored.model_name,
        "parameters": stored.parameters,
        "parameter_bytes": stored.parameter_bytes,
        "input_bytes": stored.input_bytes,
        "modalities": list(stored.modalities),
        "extra": stored.extra,
        "n": n,
        "host_n": host_n,
        "tables": tables,
        "meta": meta_table,
        "host_meta": {str(i): m for i, m in columns.host_meta.items()},
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode()
    offsets, end = _layout(len(header_bytes), n, host_n)

    buf = bytearray(end)
    buf[:8] = MAGIC
    buf[8:12] = FORMAT_VERSION.to_bytes(4, "little")
    buf[12:16] = len(header_bytes).to_bytes(4, "little")
    buf[PREFIX_LEN:PREFIX_LEN + len(header_bytes)] = header_bytes
    for (rows, _, _), block in zip(BLOCKS, _block_views(buf, offsets, n, host_n)):
        for row, name in zip(block, rows):
            row[:] = meta_codes if name == "meta_codes" else getattr(columns, name)
    buf[16:20] = zlib.crc32(memoryview(buf)[PREFIX_LEN:]).to_bytes(4, "little")
    return bytes(buf)


def write_entry(path: str | os.PathLike, key_dict: dict | None, stored,
                interner: StringInterner | None = None) -> Path:
    """Atomically publish ``stored`` as a v6 file at ``path``.

    Writes to a sibling temp file and ``os.replace``s it into place, so a
    concurrent reader either sees the old complete file or the new one —
    never a torn write. Sidecar strings are appended *before* the rename,
    so any published file's ids are always resolvable.
    """
    path = Path(path)
    blob = encode_entry(key_dict, stored, interner)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name,
                                    suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


# -- decoding ------------------------------------------------------------------

#: JSON types of the header fields. ``type(x) in types`` (not isinstance)
#: rejects JSON ``true``/``false``, which decode to bool, an int subclass.
_HEADER_TYPES: dict[str, tuple[type, ...]] = {
    "key": (dict, type(None)), "model_name": (str,), "parameters": (int,),
    "parameter_bytes": (int,), "input_bytes": (int,), "modalities": (list,),
    "extra": (dict,), "n": (int,), "host_n": (int,), "tables": (dict,),
    "meta": (list,), "host_meta": (dict,),
}
#: Interned string ids are 63-bit (see string_id).
_ID_LIMIT = 1 << 63


def _is_ints_in(values, lo: int, hi: int) -> bool:
    """Whether ``values`` is a list of ints (not bools) in ``[lo, hi)``."""
    return (type(values) is list and set(map(type, values)) <= {int}
            and (not values or (min(values) >= lo and max(values) < hi)))


def _check_header(header, header_len: int, file_size: int) -> list[int]:
    """Check that ``header``'s fields have their types, its tables and meta
    are well formed, and the file is exactly as long as its layout; return
    the layout's block offsets."""
    if type(header) is not dict:
        raise TraceFormatError(
            f"header is a JSON {type(header).__name__}, not an object")
    for name, types in _HEADER_TYPES.items():
        value = header.get(name)
        if type(value) not in types:
            raise TraceFormatError(
                f"header field {name!r} has the wrong type "
                f"({type(value).__name__})")
    n, host_n = header["n"], header["host_n"]
    if n < 0 or host_n < 0:
        raise TraceFormatError(f"negative length (n={n}, host_n={host_n})")
    if not all(type(m) is str for m in header["modalities"]):
        raise TraceFormatError("modalities must be a list of strings")
    for name in TABLE_NAMES:
        spec = header["tables"].get(name)
        if type(spec) is dict and "strings" in spec:
            strings = spec["strings"]
            if (type(strings) is not list
                    or not all(type(s) is str for s in strings)):
                raise TraceFormatError(f"table {name!r} strings must be a "
                                       f"list of strings")
        elif type(spec) is dict and type(spec.get("ids")) is list:
            if not _is_ints_in(spec["ids"], 0, _ID_LIMIT):
                raise TraceFormatError(f"table {name!r} string ids must be "
                                       f"ints in [0, 2**63)")
        else:
            raise TraceFormatError(f"table {name!r} has neither strings nor ids")
    if not all(type(m) is dict for m in header["meta"]):
        raise TraceFormatError("meta table must be a list of objects")
    for i, m in header["host_meta"].items():
        # The length test keeps int() off digit strings past its limit.
        if not (type(m) is dict and i.isdecimal()
                and len(i) <= len(str(host_n)) and int(i) < host_n):
            raise TraceFormatError(f"host_meta entry {i!r} is not an object "
                                   f"keyed by a host event index")
    offsets, end = _layout(header_len, n, host_n)
    if file_size != end:
        raise TraceFormatError(f"file is {file_size} bytes, its layout "
                               f"{end} (n={n}, host_n={host_n})")
    return offsets


def _parse_prefix(buf) -> int:
    """The header length, once the prefix names a v6 file."""
    if len(buf) < PREFIX_LEN:
        raise TraceFormatError(
            f"file too short for a v6 prefix ({len(buf)} bytes)")
    if bytes(buf[:8]) != MAGIC:
        raise TraceFormatError(f"bad magic {bytes(buf[:8])!r}")
    version = int.from_bytes(buf[8:12], "little")
    if version != FORMAT_VERSION:
        raise TraceFormatError(f"unsupported binary trace version {version}")
    return int.from_bytes(buf[12:16], "little")


def _parse_header(buf, header_len: int, file_size: int) -> tuple[dict, list[int]]:
    """The checked header JSON held by ``buf[PREFIX_LEN:][:header_len]``
    and the block offsets of its layout."""
    if PREFIX_LEN + header_len > len(buf):
        raise TraceFormatError("truncated header")
    try:
        header = json.loads(buf[PREFIX_LEN:PREFIX_LEN + header_len].decode())
    except (ValueError, UnicodeDecodeError) as exc:
        raise TraceFormatError(f"undecodable header: {exc}") from None
    return header, _check_header(header, header_len, file_size)


def read_header(path: str | os.PathLike) -> dict:
    """Header dict only (cheap corpus listing: no column mapping, and no
    crc check, which needs every byte of the file)."""
    with open(path, "rb") as fh:
        prefix = fh.read(PREFIX_LEN)
        header_len = _parse_prefix(prefix)
        blob = prefix + fh.read(header_len)
        file_size = os.fstat(fh.fileno()).st_size
    return _parse_header(blob, header_len, file_size)[0]


def _resolve_table(spec: dict, interner: StringInterner | None,
                   name: str) -> tuple[str, ...]:
    if "strings" in spec:
        return tuple(spec["strings"])
    if interner is None:
        raise TraceFormatError(
            f"table {name!r} uses interned ids but no sidecar is available")
    return interner.resolve(spec["ids"])


def _code_ranges(tables: dict, meta_len: int) -> dict[str, tuple[int, int]]:
    """``[lo, hi)`` of every code row, by row name."""
    return {
        "category_codes": (0, len(CATEGORY_ORDER)),
        "stage_codes": (0, len(tables["stage_table"])),
        "modality_codes": (NO_MODALITY, len(tables["modality_table"])),
        "pass_codes": (0, len(PASS_ORDER)),
        "name_codes": (0, len(tables["name_table"])),
        "meta_codes": (-1, meta_len),
        "host_kind_codes": (0, len(HOST_KIND_ORDER)),
        "host_stage_codes": (0, len(tables["stage_table"])),
        "host_modality_codes": (NO_MODALITY, len(tables["modality_table"])),
        "host_pass_codes": (0, len(PASS_ORDER)),
        "host_name_codes": (0, len(tables["host_name_table"])),
    }


def read_entry(path: str | os.PathLike,
               interner: StringInterner | None = None):
    """Load a v6 file into ``(header, StoredTrace)`` with zero-copy columns.

    Checks the crc before it parses anything; then the header, the file
    length and every code row's range (one ``min`` and one ``max`` per
    block). Column arrays are read-only row views over a read-only mmap of
    the file, kept alive by the arrays' ``base`` chain, so no explicit
    lifetime management is needed.
    """
    from repro.trace.store import StoredTrace
    from repro.trace.tracer import Trace

    fd = os.open(path, os.O_RDONLY)
    try:
        mm = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
    finally:
        os.close(fd)
    header_len = _parse_prefix(mm)
    if zlib.crc32(memoryview(mm)[PREFIX_LEN:]) != int.from_bytes(mm[16:20], "little"):
        raise TraceFormatError("crc32 mismatch: the file's bytes changed "
                               "after it was written")
    header, offsets = _parse_header(mm, header_len, len(mm))
    tables = {name: _resolve_table(header["tables"][name], interner, name)
              for name in TABLE_NAMES}
    ranges = _code_ranges(tables, len(header["meta"]))

    n, host_n = header["n"], header["host_n"]
    views: dict[str, np.ndarray] = {}
    for (rows, dtype, _), block in zip(BLOCKS, _block_views(mm, offsets, n, host_n)):
        if dtype == "<i8" and block.size:
            for name, lo, hi in zip(rows, block.min(axis=1).tolist(),
                                    block.max(axis=1).tolist()):
                bounds = ranges.get(name)
                if bounds is not None and not bounds[0] <= lo <= hi < bounds[1]:
                    raise TraceFormatError(f"column {name!r} has codes outside "
                                           f"[{bounds[0]}, {bounds[1]})")
        views.update(zip(rows, block))

    meta_codes, meta = views.pop("meta_codes"), {}
    if header["meta"]:
        present = np.flatnonzero(meta_codes >= 0)
        meta = dict(zip(present.tolist(), map(header["meta"].__getitem__,
                                              meta_codes[present].tolist())))
    columns = TraceColumns(
        n=n, host_n=host_n, **views, **tables, meta=meta,
        host_meta={int(i): m for i, m in header["host_meta"].items()},
    )
    stored = StoredTrace(
        trace=Trace.from_columns(columns),
        model_name=header["model_name"],
        parameters=header["parameters"],
        parameter_bytes=header["parameter_bytes"],
        input_bytes=header["input_bytes"],
        modalities=header["modalities"],
        extra=header["extra"],
    )
    return header, stored
