"""Meta captures of every workload, digested column by column.

The event stream a capture emits is what every reported number is priced
from, so tier-1 pins it: one sha256 per capture over every column an
event field maps to, the interned string tables and the meta dicts.
``tests/fixtures/capture_digests.txt`` holds the pinned digests, one line
per capture (the capture, its sha256, then an 8-hex prefix of each
column's own digest, so a mismatch names the first column that moved).

A change that means to move events re-records the fixture from the repo root::

    PYTHONPATH=src python -m tests.trace.captures
"""

from __future__ import annotations

import functools
import hashlib
from pathlib import Path

import numpy as np

from repro.trace.columns import HOST_COLUMN_SPEC, KERNEL_COLUMN_SPEC, TABLE_NAMES
from repro.trace.store import TraceStore
from repro.workloads.registry import list_workloads

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "capture_digests.txt"

#: One inference and two training captures (Adam, SGD) per workload.
MODES = ("inference", "adam", "sgd")
BATCH_SIZE = 2

#: Every digested part of a capture, in digest order.
COLUMNS = (tuple(name for name, _ in KERNEL_COLUMN_SPEC)
           + tuple(name for name, _ in HOST_COLUMN_SPEC)
           + TABLE_NAMES + ("meta", "host_meta"))


def capture(store: TraceStore, workload: str, mode: str,
            batch_size: int = BATCH_SIZE, backend: str = "meta"):
    """The columns of one capture (``mode``: inference or an optimizer)."""
    if mode == "inference":
        entry = store.get_or_capture(workload, batch_size=batch_size, seed=0,
                                     backend=backend)
    else:
        entry = store.get_or_capture_training(
            workload, batch_size=batch_size, seed=0, backend=backend,
            optimizer=mode)
    return entry.trace.columns()


@functools.cache
def meta_captures() -> dict[str, object]:
    """``{"<workload>/<mode>": columns}`` for the 27 pinned b2 captures."""
    store = TraceStore()
    return {f"{w}/{mode}": capture(store, w, mode)
            for w in list_workloads() for mode in MODES}


def _part_bytes(value) -> bytes:
    if isinstance(value, np.ndarray):
        return f"{value.dtype.str}{value.shape}".encode() + value.tobytes()
    if isinstance(value, dict):
        return repr(sorted((i, sorted(m.items())) for i, m in value.items())).encode()
    return repr(tuple(value)).encode()


def column_digests(columns) -> dict[str, str]:
    """sha256 of each part of ``columns``, by name, in :data:`COLUMNS` order."""
    return {name: hashlib.sha256(_part_bytes(getattr(columns, name))).hexdigest()
            for name in COLUMNS}


def capture_digest(digests: dict[str, str]) -> str:
    """The one sha256 of a capture: over its parts' names and digests."""
    h = hashlib.sha256()
    for name in COLUMNS:
        h.update(f"{name}={digests[name]};".encode())
    return h.hexdigest()


def fixture_line(capture_id: str, columns) -> str:
    digests = column_digests(columns)
    prefixes = ",".join(digests[name][:8] for name in COLUMNS)
    return f"{capture_id} {capture_digest(digests)} {prefixes}"


def read_fixture() -> dict[str, tuple[str, list[str]]]:
    """``{capture: (sha256, per-column prefixes)}`` from the fixture file."""
    pinned = {}
    for line in FIXTURE.read_text().splitlines():
        if line and not line.startswith("#"):
            capture_id, digest, prefixes = line.split()
            pinned[capture_id] = (digest, prefixes.split(","))
    return pinned


def record() -> None:
    lines = [f"# b{BATCH_SIZE} meta captures, seed 0: capture, sha256, "
             f"8-hex digest prefix of each of: {','.join(COLUMNS)}"]
    lines += [fixture_line(cid, cols) for cid, cols in meta_captures().items()]
    FIXTURE.write_text("\n".join(lines) + "\n")
    print(f"recorded {len(lines) - 1} captures to {FIXTURE}")


if __name__ == "__main__":
    record()
