"""Binary columnar trace files (store schema v5) + shared string interning.

The trace store's disk tier used to be gzipped JSON: compact, but a warm
load paid a full JSON parse and re-columnarization even though every
consumer has priced straight from :class:`~repro.trace.columns.TraceColumns`
since the columnar engine landed. Schema v5 stores the columns *as bytes*:

```
offset 0   magic  b"MMBTRACE"
offset 8   u32 LE format version (5)
offset 12  u32 LE header length H
offset 16  header JSON (H bytes, UTF-8)
           zero padding to the next 64-byte boundary
           raw little-endian column blocks, each 64-byte aligned,
           in the fixed KERNEL_COLUMN_SPEC + HOST_COLUMN_SPEC order
```

The header carries everything that is small (the cache key, model scalars,
``extra`` provenance, sparse per-event ``meta`` dicts, and the column
directory: name -> dtype/offset/count relative to the data section). The
column blocks carry everything that is big, and a load memory-maps them
directly into read-only numpy views — no parse, no copy, no per-event
objects. The mmap stays alive as the arrays' ``base``, so an in-flight
view survives even if the file is concurrently replaced (``os.replace``
re-points the directory entry; the mapped inode is untouched).

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
from pathlib import Path

import numpy as np

from repro.trace.columns import (
    HOST_COLUMN_SPEC,
    KERNEL_COLUMN_SPEC,
    TABLE_NAMES,
    TraceColumns,
)

MAGIC = b"MMBTRACE"
FORMAT_VERSION = 5
#: Column blocks start on 64-byte boundaries (cache-line / SIMD friendly).
ALIGN = 64

#: Canonical file suffix for v5 binary trace files.
SUFFIX = ".mmt"


class TraceFormatError(ValueError):
    """A v5 trace file (or its interning sidecar) cannot be decoded."""


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
    writers' strings.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self._by_id: dict[int, str] = {}
        self._loaded = False

    def _refresh(self) -> None:
        self._loaded = True
        try:
            raw = self.path.read_bytes()
        except OSError:
            return
        for line in raw.splitlines():
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                self._by_id[int(rec["id"])] = rec["s"]
            except (ValueError, KeyError, TypeError):
                # Torn tail from an in-flight append; the payload it was
                # carrying is re-appended by whoever needed it.
                continue

    def __len__(self) -> int:
        self._refresh()
        return len(self._by_id)

    def intern(self, strings) -> list[int]:
        """Ids for ``strings``, appending any the sidecar lacks."""
        ids = [string_id(s) for s in strings]
        if not self._loaded:
            self._refresh()
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
        return ids

    def resolve(self, ids) -> tuple[str, ...]:
        """Strings for ``ids`` (re-reads the sidecar on unknown ids)."""
        if any(int(i) not in self._by_id for i in ids):
            self._refresh()
        try:
            return tuple(self._by_id[int(i)] for i in ids)
        except KeyError as exc:
            raise TraceFormatError(
                f"interning sidecar {self.path} is missing string id {exc}"
            ) from None


# -- encoding ------------------------------------------------------------------


def _column_arrays(columns: TraceColumns) -> list[tuple[str, str, np.ndarray]]:
    out = []
    for name, dtype in KERNEL_COLUMN_SPEC + HOST_COLUMN_SPEC:
        arr = np.ascontiguousarray(getattr(columns, name), dtype=np.dtype(dtype))
        out.append((name, dtype, arr))
    return out


def encode_entry(key_dict: dict | None, stored, interner: StringInterner | None) -> bytes:
    """Serialize a :class:`~repro.trace.store.StoredTrace` to v5 bytes."""
    columns = stored.trace.columns()
    arrays = _column_arrays(columns)

    directory = []
    offset = 0  # relative to the (64-aligned) data section start
    for name, dtype, arr in arrays:
        offset = _align_up(offset)
        directory.append({"name": name, "dtype": dtype,
                          "count": int(arr.size), "offset": offset})
        offset += arr.nbytes

    tables: dict[str, dict] = {}
    for tname in TABLE_NAMES:
        strings = list(getattr(columns, tname))
        if interner is not None:
            tables[tname] = {"ids": interner.intern(strings)}
        else:
            tables[tname] = {"strings": strings}

    header = {
        "schema": FORMAT_VERSION,
        "key": key_dict,
        "model_name": stored.model_name,
        "parameters": stored.parameters,
        "parameter_bytes": stored.parameter_bytes,
        "input_bytes": stored.input_bytes,
        "modalities": list(stored.modalities),
        "extra": stored.extra,
        "n": columns.n,
        "host_n": columns.host_n,
        "columns": directory,
        "tables": tables,
        "meta": {str(i): m for i, m in columns.meta.items()},
        "host_meta": {str(i): m for i, m in columns.host_meta.items()},
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode()

    data_start = _align_up(16 + len(header_bytes))
    parts = [MAGIC,
             (FORMAT_VERSION).to_bytes(4, "little"),
             len(header_bytes).to_bytes(4, "little"),
             header_bytes,
             b"\x00" * (data_start - 16 - len(header_bytes))]
    pos = 0
    for entry, (_, _, arr) in zip(directory, arrays):
        pad = entry["offset"] - pos
        if pad:
            parts.append(b"\x00" * pad)
        parts.append(arr.tobytes())
        pos = entry["offset"] + arr.nbytes
    return b"".join(parts)


def write_entry(path: str | os.PathLike, key_dict: dict | None, stored,
                interner: StringInterner | None = None) -> Path:
    """Atomically publish ``stored`` as a v5 file at ``path``.

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

#: JSON types of the header fields ``read_entry`` and store listings read.
_HEADER_TYPES: dict[str, type | tuple[type, ...]] = {
    "n": int, "host_n": int, "columns": list, "modalities": list,
    "tables": dict, "meta": dict, "host_meta": dict, "key": (dict, type(None)),
}

#: The dtype each column's directory entry must name.
_COLUMN_DTYPES = dict(KERNEL_COLUMN_SPEC + HOST_COLUMN_SPEC)
_NP_DTYPES = {name: np.dtype(dtype) for name, dtype in _COLUMN_DTYPES.items()}
#: Interned string ids are 63-bit (see string_id).
_ID_LIMIT = 1 << 63


def _check_directory(header: dict, data_size: int) -> None:
    """Every column block and string id is in range before anything maps
    or looks it up: a block is a known column of its schema dtype, with
    an int count and a non-negative 64-byte-aligned int offset, inside the
    ``data_size``-byte data section; a string id is an int in
    ``[0, 2**63)``. ``type(x) is int`` rejects JSON ``true``/``false``
    (bool is an int subclass) as well as floats."""
    for entry in header["columns"]:
        if type(entry) is not dict:
            raise TraceFormatError(f"column entry is a JSON "
                                   f"{type(entry).__name__}, not an object")
        name, count, offset = entry.get("name"), entry.get("count"), entry.get("offset")
        if type(name) is not str or name not in _COLUMN_DTYPES:
            raise TraceFormatError(f"unknown column {name!r}")
        if entry.get("dtype") != _COLUMN_DTYPES[name]:
            raise TraceFormatError(f"column {name!r} has dtype "
                                   f"{entry.get('dtype')!r}, not "
                                   f"{_COLUMN_DTYPES[name]!r}")
        if type(count) is not int or count < 0:
            raise TraceFormatError(f"column {name!r} count must be a "
                                   f"non-negative int, got {count!r}")
        if type(offset) is not int or offset < 0 or offset % ALIGN:
            raise TraceFormatError(f"column {name!r} offset must be a "
                                   f"non-negative multiple of {ALIGN}, "
                                   f"got {offset!r}")
        if count and offset + count * _NP_DTYPES[name].itemsize > data_size:
            raise TraceFormatError(
                f"column {name!r} extends past end of file")
    for name in TABLE_NAMES:
        spec = header["tables"].get(name)
        if type(spec) is dict and "strings" in spec:
            strings = spec["strings"]
            if (type(strings) is not list
                    or not all(type(s) is str for s in strings)):
                raise TraceFormatError(f"table {name!r} strings must be a "
                                       f"list of strings")
        elif type(spec) is dict and type(spec.get("ids")) is list:
            for i in spec["ids"]:
                if type(i) is not int or not 0 <= i < _ID_LIMIT:
                    raise TraceFormatError(f"table {name!r} string id must "
                                           f"be an int in [0, 2**63), got {i!r}")
        else:
            raise TraceFormatError(f"table {name!r} has neither strings nor ids")


def _parse_header(buf, file_size: int) -> tuple[dict, int]:
    """Validated header dict + absolute data-section offset, for a file of
    ``file_size`` bytes whose first bytes are ``buf``."""
    if len(buf) < 16:
        raise TraceFormatError(f"file too short for a v5 header ({len(buf)} bytes)")
    if bytes(buf[:8]) != MAGIC:
        raise TraceFormatError(f"bad magic {bytes(buf[:8])!r}")
    version = int.from_bytes(buf[8:12], "little")
    if version != FORMAT_VERSION:
        raise TraceFormatError(f"unsupported binary trace version {version}")
    header_len = int.from_bytes(buf[12:16], "little")
    if 16 + header_len > len(buf):
        raise TraceFormatError("truncated header")
    try:
        header = json.loads(bytes(buf[16:16 + header_len]).decode())
    except (ValueError, UnicodeDecodeError) as exc:
        raise TraceFormatError(f"undecodable header: {exc}") from None
    if not isinstance(header, dict):
        raise TraceFormatError(
            f"header is a JSON {type(header).__name__}, not an object")
    if header.get("schema") != FORMAT_VERSION:
        raise TraceFormatError(f"unsupported schema {header.get('schema')!r}")
    for name, types in _HEADER_TYPES.items():
        value = header.get(name)
        # JSON true/false decode to bool, an int subclass; never a count.
        if not isinstance(value, types) or isinstance(value, bool):
            raise TraceFormatError(
                f"header field {name!r} has the wrong type "
                f"({type(value).__name__})")
    data_start = _align_up(16 + header_len)
    _check_directory(header, file_size - data_start)
    return header, data_start


def read_header(path: str | os.PathLike) -> dict:
    """Header dict only (cheap corpus listing — no column mapping)."""
    with open(path, "rb") as fh:
        prefix = fh.read(16)
        if len(prefix) < 16 or prefix[:8] != MAGIC:
            raise TraceFormatError(f"{path}: not a v5 trace file")
        header_len = int.from_bytes(prefix[12:16], "little")
        blob = prefix + fh.read(header_len)
        file_size = os.fstat(fh.fileno()).st_size
    header, _ = _parse_header(blob, file_size)
    return header


def _resolve_table(spec: dict, interner: StringInterner | None,
                   name: str) -> tuple[str, ...]:
    if "strings" in spec:
        return tuple(spec["strings"])
    if interner is None:
        raise TraceFormatError(
            f"table {name!r} uses interned ids but no sidecar is available")
    return interner.resolve(spec["ids"])


def read_entry(path: str | os.PathLike,
               interner: StringInterner | None = None):
    """Load a v5 file into ``(header, StoredTrace)`` with zero-copy columns.

    Column arrays are read-only ``np.frombuffer`` views over a private
    read-only mmap of the file; the mmap is kept alive by the arrays'
    ``base`` chain, so no explicit lifetime management is needed.
    """
    from repro.trace.store import StoredTrace
    from repro.trace.tracer import Trace

    with open(path, "rb") as fh:
        mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    header, data_start = _parse_header(mm, len(mm))

    tables = {name: _resolve_table(header["tables"][name], interner, name)
              for name in TABLE_NAMES}

    arrays: dict[str, np.ndarray] = {}
    for entry in header["columns"]:
        dtype = _NP_DTYPES[entry["name"]]
        count = entry["count"]
        arrays[entry["name"]] = (
            np.frombuffer(mm, dtype=dtype, count=count,
                          offset=data_start + entry["offset"])
            if count else np.empty(0, dtype=dtype))

    columns = TraceColumns.from_buffers(
        n=int(header["n"]), host_n=int(header["host_n"]),
        arrays=arrays, tables=tables,
        meta={int(i): dict(m) for i, m in header["meta"].items()},
        host_meta={int(i): dict(m) for i, m in header["host_meta"].items()},
    )
    stored = StoredTrace(
        trace=Trace.from_columns(columns),
        model_name=header["model_name"],
        parameters=header["parameters"],
        parameter_bytes=header["parameter_bytes"],
        input_bytes=header["input_bytes"],
        modalities=list(header["modalities"]),
        extra=dict(header.get("extra") or {}),
    )
    return header, stored
