"""Edit ``.mmt`` trace-store files in tests.

A file's crc32 covers every byte after its 20-byte prefix, so a crafted
edit (a header field, a code in a column row) only reaches the check it
aims at once the crc is recomputed: :func:`join` and :func:`reseal` do
that. An edit left unsealed is bit rot, which the crc catches first.
"""

from __future__ import annotations

import json
import zlib

from repro.trace import binfmt


def split(blob: bytes) -> tuple[dict, bytes]:
    """A file's header JSON and its data section (the column blocks)."""
    header_len = int.from_bytes(blob[12:16], "little")
    header = json.loads(blob[binfmt.PREFIX_LEN:binfmt.PREFIX_LEN + header_len])
    return header, blob[binfmt._align_up(binfmt.PREFIX_LEN + header_len):]


def reseal(blob: bytes | bytearray) -> bytes:
    """``blob`` with its crc32 recomputed over the bytes after the prefix."""
    crc = zlib.crc32(blob[binfmt.PREFIX_LEN:]).to_bytes(4, "little")
    return bytes(blob[:16]) + crc + bytes(blob[binfmt.PREFIX_LEN:])


def join(header, data: bytes, version: int = binfmt.FORMAT_VERSION) -> bytes:
    """A sealed file holding ``header`` (any JSON value) and ``data``.

    Blocks are 64-byte aligned relative to a 64-byte-aligned data section,
    so a data section moves to a header of another length unchanged.
    """
    raw = json.dumps(header).encode()
    end = binfmt.PREFIX_LEN + len(raw)
    return reseal(binfmt.MAGIC + version.to_bytes(4, "little")
                  + len(raw).to_bytes(4, "little") + bytes(4) + raw
                  + bytes(binfmt._align_up(end) - end) + data)


def row_offset(blob: bytes, name: str) -> int:
    """Absolute offset of the first value of column row ``name``."""
    header, _ = split(blob)
    header_len = int.from_bytes(blob[12:16], "little")
    offsets, _ = binfmt._layout(header_len, header["n"], header["host_n"])
    for (rows, _, length), offset in zip(binfmt.BLOCKS, offsets):
        if name in rows:
            return offset + rows.index(name) * 8 * header[length]
    raise KeyError(name)
