"""The binary columnar (format v6) disk tier: zero-copy loads, round
trips, malformed headers and data, stray files, interning, corpus ops,
concurrent writers."""

from __future__ import annotations

import dataclasses
import gzip
import json
import math
import multiprocessing
import random

import numpy as np
import pytest

from repro.hw.device import get_device
from repro.hw.engine import ExecutionEngine
from repro.trace import binfmt
from repro.trace.columns import (
    HOST_COLUMN_SPEC,
    KERNEL_COLUMN_SPEC,
    TABLE_NAMES,
    TraceColumns,
)
from repro.trace.events import (
    PASSES,
    HostEvent,
    HostOpKind,
    KernelCategory,
    KernelEvent,
)
from repro.trace.store import StoredTrace, TraceStore, set_default_store
from repro.trace.tracer import Trace
from repro.workloads.registry import list_workloads
from tests.trace.mmt_files import join, reseal, row_offset, split

ALL_COLUMNS = [name for name, _ in KERNEL_COLUMN_SPEC + HOST_COLUMN_SPEC]


@pytest.fixture(autouse=True)
def fresh_default_store():
    prev = set_default_store(None)
    yield
    set_default_store(prev)


def random_stored_trace(rng: np.random.Generator, n: int = 40,
                        host_n: int = 7) -> StoredTrace:
    """A synthetic trace with every categorical dimension exercised."""
    stages = ("preprocess", "encoder", "fusion", "head", "optimizer")
    modalities = ("image", "audio", "text", None)
    categories = list(KernelCategory)
    kinds = list(HostOpKind)
    kernels = [
        KernelEvent(
            name=f"op_{rng.integers(0, 12)}",
            category=categories[rng.integers(0, len(categories))],
            flops=float(rng.uniform(0, 1e9)),
            bytes_read=float(rng.uniform(0, 1e7)),
            bytes_written=float(rng.uniform(0, 1e6)),
            threads=int(rng.integers(1, 1 << 20)),
            stage=stages[rng.integers(0, len(stages))],
            modality=modalities[rng.integers(0, len(modalities))],
            pass_=PASSES[rng.integers(0, len(PASSES))],
            seq=int(i),
            coalesced_fraction=float(rng.uniform(0.1, 1.0)),
            reuse_factor=float(rng.uniform(1.0, 16.0)),
            meta={"shape": [int(rng.integers(1, 64))]} if rng.random() < 0.3 else {},
        )
        for i in range(n)
    ]
    host_events = [
        HostEvent(
            kind=kinds[rng.integers(0, len(kinds))],
            bytes=float(rng.uniform(0, 1e6)),
            stage=stages[rng.integers(0, len(stages))],
            modality=modalities[rng.integers(0, len(modalities))],
            pass_=PASSES[rng.integers(0, len(PASSES))],
            seq=int(i),
            name=f"host_{rng.integers(0, 4)}",
        )
        for i in range(host_n)
    ]
    return StoredTrace(
        trace=Trace(kernels, host_events),
        model_name=f"random_{rng.integers(0, 1 << 30)}",
        parameters=int(rng.integers(1, 1 << 24)),
        parameter_bytes=int(rng.integers(1, 1 << 26)),
        input_bytes=int(rng.integers(1, 1 << 22)),
        modalities=["image", "audio"],
        extra={"seed": int(rng.integers(0, 1 << 16))},
    )


def assert_columns_equal(a: TraceColumns, b: TraceColumns) -> None:
    assert (a.n, a.host_n) == (b.n, b.host_n)
    for name in ALL_COLUMNS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for tname in TABLE_NAMES:
        assert getattr(a, tname) == getattr(b, tname), tname
    assert a.meta == b.meta and a.host_meta == b.host_meta


def engine_total(stored: StoredTrace, device: str = "2080ti") -> float:
    engine = ExecutionEngine(get_device(device))
    return engine.run(stored.trace, model_bytes=stored.parameter_bytes,
                      input_bytes=stored.input_bytes).total_time


def rewrite_header(path, mutate) -> None:
    """Re-publish a ``.mmt`` file with its header JSON set to
    ``mutate(header)`` and its crc recomputed; the column blocks are
    carried over unchanged."""
    header, data = split(path.read_bytes())
    path.write_bytes(join(mutate(header), data))


def stale_key(store: TraceStore, **kwargs):
    """A key the store can never look up again: another code fingerprint."""
    return dataclasses.replace(store.make_key(**kwargs),
                               code_version="0ld0ld0ld0ld")


class TestRoundTripProperties:
    """Random traces -> v5 write -> mmap load must be lossless."""

    def test_random_traces_round_trip_exactly(self, tmp_path):
        rng = np.random.default_rng(7)
        for trial in range(8):
            stored = random_stored_trace(
                rng, n=int(rng.integers(1, 200)), host_n=int(rng.integers(0, 20)))
            path = tmp_path / f"t{trial}.mmt"
            binfmt.write_entry(path, {"trial": trial}, stored)
            header, loaded = binfmt.read_entry(path)
            assert header["key"] == {"trial": trial}
            assert_columns_equal(stored.trace.columns(), loaded.trace.columns())
            assert loaded.model_name == stored.model_name
            assert loaded.parameters == stored.parameters
            assert loaded.parameter_bytes == stored.parameter_bytes
            assert loaded.input_bytes == stored.input_bytes
            assert loaded.modalities == stored.modalities
            assert loaded.extra == stored.extra

    def test_random_traces_price_identically(self, tmp_path):
        rng = np.random.default_rng(11)
        for trial in range(4):
            stored = random_stored_trace(rng, n=64)
            path = tmp_path / f"p{trial}.mmt"
            binfmt.write_entry(path, None, stored)
            _, loaded = binfmt.read_entry(path)
            t0, t1 = engine_total(stored), engine_total(loaded)
            assert t1 == pytest.approx(t0, rel=1e-9)

    def test_meta_table_keeps_key_order_and_value_types(self, tmp_path):
        metas = [{"m": 1, "n": 2}, {"n": 2, "m": 1}, {"m": 1.0, "n": 2},
                 {"m": True, "n": 2}, {"shape": [1, 2]}, {"m": 1, "n": 2},
                 {}, {"shape": [1, 2]}]
        base = random_stored_trace(np.random.default_rng(3), n=len(metas))
        kernels = [dataclasses.replace(k, meta=m)
                   for k, m in zip(base.trace.kernels, metas)]
        stored = dataclasses.replace(base, trace=Trace(kernels, []))
        path = tmp_path / "meta.mmt"
        binfmt.write_entry(path, None, stored)
        header, loaded = binfmt.read_entry(path)
        assert len(header["meta"]) == 5  # distinct by items, order and type
        got = loaded.trace.columns().meta
        assert sorted(got) == [i for i, m in enumerate(metas) if m]
        for i, m in got.items():
            assert json.dumps(m) == json.dumps(metas[i])

    def test_empty_trace_round_trips(self, tmp_path):
        stored = StoredTrace(trace=Trace([], []), model_name="empty",
                             parameters=0, parameter_bytes=0, input_bytes=0)
        path = tmp_path / "empty.mmt"
        binfmt.write_entry(path, None, stored)
        _, loaded = binfmt.read_entry(path)
        assert loaded.trace.columns().n == 0
        assert loaded.trace.columns().host_n == 0


class TestZeroCopy:
    def test_loaded_columns_are_readonly_mmap_views(self, tmp_path):
        warm = TraceStore(tmp_path)
        warm.get_or_capture("avmnist", batch_size=4, backend="meta")
        cold = TraceStore(tmp_path)
        cols = cold.get_or_capture("avmnist", batch_size=4,
                                   backend="meta").trace.columns()
        assert cold.stats["disk_hits"] == 1
        for name in ALL_COLUMNS:
            arr = getattr(cols, name)
            assert not arr.flags["OWNDATA"], name   # a view, not a copy
            assert arr.base is not None, name       # ... over the file mmap
            assert not arr.flags["WRITEABLE"], name  # and strictly read-only

    def test_inflight_mmap_survives_concurrent_replace(self, tmp_path):
        """os.replace over a mapped file must not tear the open view."""
        store = TraceStore(tmp_path)
        original = store.get_or_capture("avmnist", batch_size=4, backend="meta")
        key = store.make_key("avmnist", batch_size=4, backend="meta")

        cold = TraceStore(tmp_path)
        loaded = cold.get_or_capture("avmnist", batch_size=4, backend="meta")
        snapshot = loaded.trace.columns().flops.copy()

        # Re-publish the same digest (a concurrent writer finishing late).
        store.put(key, original)
        # The already-mapped view still reads the old inode, intact.
        assert np.array_equal(loaded.trace.columns().flops, snapshot)
        # And a fresh mapping of the new file agrees too.
        fresh = TraceStore(tmp_path)
        again = fresh.get_or_capture("avmnist", batch_size=4, backend="meta")
        assert np.array_equal(again.trace.columns().flops, snapshot)


class TestDiskRoundTrip:
    """A disk round trip must be numerically invisible vs the capture."""

    @pytest.mark.parametrize("workload", list_workloads())
    def test_workload_disk_round_trip_matches_capture(self, tmp_path, workload):
        captured = TraceStore(tmp_path).get_or_capture(
            workload, batch_size=4, backend="meta")
        cold = TraceStore(tmp_path)
        loaded = cold.get_or_capture(workload, batch_size=4, backend="meta")
        assert cold.stats["disk_hits"] == 1 and cold.stats["captures"] == 0

        assert_columns_equal(captured.trace.columns(), loaded.trace.columns())
        assert engine_total(loaded) == pytest.approx(
            engine_total(captured), rel=1e-9)

    def test_training_step_disk_round_trip_matches_capture(self, tmp_path):
        captured = TraceStore(tmp_path).get_or_capture_training(
            "avmnist", batch_size=2, backend="meta")
        cold = TraceStore(tmp_path)
        loaded = cold.get_or_capture_training("avmnist", batch_size=2,
                                              backend="meta")
        assert cold.stats["disk_hits"] == 1 and cold.stats["captures"] == 0
        assert_columns_equal(captured.trace.columns(), loaded.trace.columns())
        assert loaded.trace.passes() == \
            ["forward", "loss", "backward", "optimizer"]
        assert engine_total(loaded) == pytest.approx(
            engine_total(captured), rel=1e-9)


def set_string_id(value):
    """A header mutation: the first interned kernel-name id := ``value``."""
    def mutate(header):
        table = header["tables"]["name_table"]
        ids = [value, *table["ids"][1:]]
        return {**header, "tables": {**header["tables"],
                                     "name_table": {**table, "ids": ids}}}
    return mutate


#: Headers of the wrong JSON shape, string ids out of range, and lengths
#: the file does not hold: each must count as a corrupt file (``mmbench
#: store ls`` lists it so: the checks need only the header and the file
#: size), never escape the store as a raw AttributeError, KeyError or
#: OverflowError, nor map a block from outside the file. The infinite ids
#: are crashes the ``.mmt`` fuzz target in
#: tests/property/test_untrusted_inputs_fuzz.py found.
MALFORMED_HEADERS = {
    "string-id-is-infinity": set_string_id(math.inf),
    "string-id-is-a-float": set_string_id(1.0),
    "string-id-past-63-bits": set_string_id(1 << 63),
    "string-ids-is-a-number": lambda header: {**header, "tables": {
        **header["tables"], "name_table": {"ids": 5}}},
    "strings-are-numbers": lambda header: {**header, "tables": {
        **header["tables"], "name_table": {"strings": [1, 2]}}},
    "header-is-a-list": lambda header: [5],
    "meta-is-an-object": lambda header: {**header, "meta": {}},
    "meta-entry-is-a-number": lambda header: {**header, "meta": [1]},
    "n-missing": lambda header: {k: v for k, v in header.items() if k != "n"},
    "key-is-a-list": lambda header: {**header, "key": [1]},
    "n-is-a-bool": lambda header: {**header, "n": True},
    "n-is-negative": lambda header: {**header, "n": -1},
    "n-past-end-of-file": lambda header: {**header, "n": header["n"] + 1},
    "host_n-past-end-of-file": lambda header: {**header,
                                               "host_n": header["host_n"] + 8},
    "host_n-is-a-string": lambda header: {**header, "host_n": "7"},
    "modalities-is-a-string": lambda header: {**header, "modalities": "image"},
    "tables-is-a-list": lambda header: {**header, "tables": []},
    "host_meta-is-a-list": lambda header: {**header, "host_meta": []},
    "host_meta-key-past-host_n": lambda header: {
        **header, "host_meta": {str(header["host_n"]): {"x": 1}}},
    "key-is-a-string": lambda header: {**header, "key": "avmnist"},
    "parameters-is-a-float": lambda header: {**header, "parameters": 1.5},
    "extra-is-a-list": lambda header: {**header, "extra": []},
}


def set_code(name, value):
    """A sealed data edit: the first value of column row ``name`` := ``value``."""
    def edit(blob):
        out = bytearray(blob)
        at = row_offset(blob, name)
        out[at:at + 8] = value(split(blob)[0]).to_bytes(8, "little", signed=True)
        return reseal(out)
    return edit


def flip_crc(blob):
    out = bytearray(blob)
    out[16] ^= 1
    return bytes(out)


#: Whole-file edits, and whether ``mmbench store ls`` (headers only) still
#: lists the entry ``ok``. A crc mismatch and an out-of-range code are found
#: only by a full read, which quarantines the entry.
MALFORMED_FILES = {
    "version-is-5": (lambda blob: join(*split(blob), version=5), "corrupt"),
    "bytes-after-layout": (lambda blob: reseal(blob + bytes(64)), "corrupt"),
    "crc-is-wrong": (flip_crc, "ok"),
    "meta-code-past-meta-table": (
        set_code("meta_codes", lambda header: len(header["meta"])), "ok"),
    "category-code-past-categories": (
        set_code("category_codes", lambda header: len(KernelCategory)), "ok"),
}


class TestMalformedHeaders:
    """A header of the wrong JSON shape is a corrupt file, never a crash."""

    def seed(self, tmp_path):
        store = TraceStore(tmp_path)
        store.get_or_capture("avmnist", batch_size=2, backend="meta")
        key = store.make_key("avmnist", batch_size=2, backend="meta")
        return key, tmp_path / f"{key.digest()}.mmt"

    def test_rewritten_valid_header_still_loads(self, tmp_path):
        key, path = self.seed(tmp_path)
        rewrite_header(path, lambda header: header)
        cold = TraceStore(tmp_path)
        assert cold.get(key) is not None and cold.stats["disk_hits"] == 1

    def assert_quarantined(self, tmp_path, key, path, listed: str) -> None:
        bad = path.read_bytes()
        [info] = TraceStore(tmp_path).entries()
        assert info["status"] == listed
        assert (info["key"] is None) == (listed == "corrupt")

        with pytest.raises(KeyError, match="unreadable"):
            TraceStore(tmp_path).load_digest(key.digest()[:12])

        path.write_bytes(bad)
        cold = TraceStore(tmp_path)
        assert cold.get(key) is None
        assert cold.stats["misses"] == 1 and cold.stats["corrupt"] == 1
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()

    @pytest.mark.parametrize("mutate", list(MALFORMED_HEADERS.values()),
                             ids=list(MALFORMED_HEADERS))
    def test_malformed_header_is_quarantined(self, tmp_path, mutate):
        key, path = self.seed(tmp_path)
        rewrite_header(path, mutate)
        with pytest.raises(binfmt.TraceFormatError):
            binfmt.read_header(path)
        self.assert_quarantined(tmp_path, key, path, "corrupt")

    @pytest.mark.parametrize("edit, listed", list(MALFORMED_FILES.values()),
                             ids=list(MALFORMED_FILES))
    def test_malformed_file_is_quarantined(self, tmp_path, edit, listed):
        key, path = self.seed(tmp_path)
        path.write_bytes(edit(path.read_bytes()))
        interner = binfmt.StringInterner(tmp_path / TraceStore.INTERNING_SIDECAR)
        with pytest.raises(binfmt.TraceFormatError):
            binfmt.read_entry(path, interner)
        self.assert_quarantined(tmp_path, key, path, listed)


class TestChecksum:
    """A flipped bit anywhere after the prefix fails the crc: the entry is
    quarantined and recaptured, never priced from the changed bytes."""

    def test_flipped_flops_bit_recaptures_the_original_price(self, tmp_path):
        store = TraceStore(tmp_path)
        original = store.get_or_capture("avmnist", batch_size=2, backend="meta")
        price = engine_total(original)
        assert price == pytest.approx(2.82977e-4, rel=1e-5)
        key = store.make_key("avmnist", batch_size=2, backend="meta")
        path = tmp_path / f"{key.digest()}.mmt"
        blob = bytearray(path.read_bytes())
        blob[row_offset(blob, "flops") + 7] ^= 1 << 6  # the first flops' top byte
        path.write_bytes(bytes(blob))

        cold = TraceStore(tmp_path)
        again = cold.get_or_capture("avmnist", batch_size=2, backend="meta")
        assert cold.stats["corrupt"] == 1 and cold.stats["misses"] == 1
        assert cold.stats["captures"] == 1
        assert path.with_name(path.name + ".corrupt").exists()
        assert engine_total(again) == price
        fresh = TraceStore(tmp_path)
        assert engine_total(fresh.get_or_capture(
            "avmnist", batch_size=2, backend="meta")) == price
        assert fresh.stats["disk_hits"] == 1

    def test_any_flipped_bit_after_the_prefix_fails(self, tmp_path):
        stored = random_stored_trace(np.random.default_rng(5), n=24, host_n=5)
        path = tmp_path / "t.mmt"
        binfmt.write_entry(path, None, stored)
        blob = path.read_bytes()
        rng = random.Random(5)
        for pos in rng.sample(range(binfmt.PREFIX_LEN, len(blob)), 40):
            bad = bytearray(blob)
            bad[pos] ^= 1 << rng.randrange(8)
            path.write_bytes(bytes(bad))
            with pytest.raises(binfmt.TraceFormatError, match="crc32"):
                binfmt.read_entry(path)


class TestStrayLegacyFile:
    """A leftover ``<digest>.json.gz`` from the retired gzip-JSON format is
    not an entry: its key misses and recaptures, and corpus ops skip it."""

    def test_stray_json_gz_is_a_miss_that_recaptures(self, tmp_path):
        store = TraceStore(tmp_path)
        key = store.make_key("avmnist", batch_size=2, backend="meta")
        stray = tmp_path / f"{key.digest()}.json.gz"
        stray.write_bytes(gzip.compress(json.dumps(
            {"schema": 4, "key": dataclasses.asdict(key)}).encode()))

        out = store.get_or_capture("avmnist", batch_size=2, backend="meta")
        assert store.stats["misses"] == 1 and store.stats["captures"] == 1
        assert store.stats["corrupt"] == 0
        assert out.trace.total_flops > 0
        assert [info["digest"] for info in store.entries()] == [key.digest()]

        removed = store.gc()
        assert removed == {"corrupt": 0, "tmp": 0, "stale": 0, "unreadable": 0}
        assert stray.exists()


class TestInterning:
    def test_sidecar_shared_across_traces(self, tmp_path):
        store = TraceStore(tmp_path)
        store.get_or_capture("avmnist", batch_size=2, backend="meta")
        sidecar = tmp_path / TraceStore.INTERNING_SIDECAR
        size_after_one = sidecar.stat().st_size
        # Same workload at another batch: same op/stage/modality names, so
        # the sidecar should not grow at all.
        store.get_or_capture("avmnist", batch_size=4, backend="meta")
        assert sidecar.stat().st_size == size_after_one

    def test_sidecar_ids_are_content_addressed(self):
        assert binfmt.string_id("conv2d") == binfmt.string_id("conv2d")
        assert binfmt.string_id("conv2d") != binfmt.string_id("relu")
        assert 0 <= binfmt.string_id("conv2d") < 1 << 63

    def test_torn_sidecar_tail_is_skipped_and_rewritten(self, tmp_path):
        store = TraceStore(tmp_path)
        store.get_or_capture("avmnist", batch_size=2, backend="meta")
        sidecar = tmp_path / TraceStore.INTERNING_SIDECAR
        with open(sidecar, "ab") as fh:
            fh.write(b'{"id": 123, "s": "trun')  # crash mid-append
        cold = TraceStore(tmp_path)
        loaded = cold.get_or_capture("avmnist", batch_size=2, backend="meta")
        assert cold.stats["disk_hits"] == 1
        assert loaded.trace.total_flops > 0

    @pytest.mark.parametrize("bad_line", [
        b'{"id": 123, "s": "trun', b'{"id": 7, "s": "a"}, {"id": 8, "s": "b"}',
        b'{"s": "no id"}', b"[1, 2]", b"]"])
    def test_sidecar_reads_like_one_parse_per_line(self, tmp_path, bad_line):
        lines = [b'{"id":%d,"s":"op_%d"}' % (i, i) for i in range(5)]
        sidecar = tmp_path / TraceStore.INTERNING_SIDECAR
        sidecar.write_bytes(b"\n".join(lines[:3] + [bad_line] + lines[3:]) + b"\n")
        interner = binfmt.StringInterner(sidecar)
        assert interner.resolve(range(5)) == tuple(f"op_{i}" for i in range(5))
        assert len(interner) == 5

    def test_append_after_torn_tail_starts_a_new_line(self, tmp_path):
        # A writer that glued its first record onto a torn line would lose
        # it, and the next cold read would quarantine a good entry.
        TraceStore(tmp_path).get_or_capture("avmnist", batch_size=2, backend="meta")
        sidecar = tmp_path / TraceStore.INTERNING_SIDECAR
        with open(sidecar, "ab") as fh:
            fh.write(b'{"id": 123, "s": "trun')  # crash mid-append
        TraceStore(tmp_path).get_or_capture("mmimdb", batch_size=2, backend="meta")
        cold = TraceStore(tmp_path)
        loaded = cold.get_or_capture("mmimdb", batch_size=2, backend="meta")
        assert cold.stats["disk_hits"] == 1 and cold.stats["corrupt"] == 0
        assert loaded.trace.total_flops > 0

    def test_sidecar_ends_in_newline_without_a_torn_tail(self, tmp_path):
        store = TraceStore(tmp_path)
        store.get_or_capture("avmnist", batch_size=2, backend="meta")
        TraceStore(tmp_path).get_or_capture("mmimdb", batch_size=2, backend="meta")
        raw = (tmp_path / TraceStore.INTERNING_SIDECAR).read_bytes()
        assert raw.endswith(b"\n") and b"\n\n" not in raw

    def test_writer_reads_the_sidecar_once(self, tmp_path, monkeypatch):
        TraceStore(tmp_path).get_or_capture("avmnist", batch_size=2, backend="meta")
        reads = []
        refresh = binfmt.StringInterner._refresh
        monkeypatch.setattr(binfmt.StringInterner, "_refresh",
                            lambda self: reads.append(1) or refresh(self))
        store = TraceStore(tmp_path)
        for workload in ("mmimdb", "mustard", "cmu_mosei"):
            store.get_or_capture(workload, batch_size=2, backend="meta")
        assert store.stats["captures"] == 3 and len(reads) == 1

    def test_repeat_put_hashes_no_string(self, tmp_path, monkeypatch):
        # The writer's table already holds every string of a trace it
        # wrote: a second put hashes nothing and writes the same bytes.
        store = TraceStore(tmp_path)
        key = store.make_key("avmnist", batch_size=2, backend="meta")
        stored = store.get_or_capture("avmnist", batch_size=2, backend="meta")
        path = store._binary_path(key.digest())
        sidecar = tmp_path / TraceStore.INTERNING_SIDECAR
        entry, strings = path.read_bytes(), sidecar.read_bytes()
        hashed = []
        string_id = binfmt.string_id
        monkeypatch.setattr(binfmt, "string_id",
                            lambda s: hashed.append(s) or string_id(s))
        store.put(key, stored)
        assert hashed == []
        assert path.read_bytes() == entry and sidecar.read_bytes() == strings

    def test_missing_sidecar_quarantines_instead_of_crashing(self, tmp_path):
        store = TraceStore(tmp_path)
        store.get_or_capture("avmnist", batch_size=2, backend="meta")
        (tmp_path / TraceStore.INTERNING_SIDECAR).unlink()
        cold = TraceStore(tmp_path)
        out = cold.get_or_capture("avmnist", batch_size=2, backend="meta")
        assert cold.stats["corrupt"] == 1 and cold.stats["captures"] == 1
        assert out.trace.total_flops > 0


class TestCorpusOps:
    def test_prefetch_maps_whole_corpus_in_one_pass(self, tmp_path):
        seeder = TraceStore(tmp_path)
        for workload in ("avmnist", "mmimdb"):
            seeder.get_or_capture(workload, batch_size=2, backend="meta")

        cold = TraceStore(tmp_path)
        assert cold.prefetch() == 2
        assert len(cold) == 2
        # Everything is already resident: the get is a pure memory hit.
        cold.get_or_capture("avmnist", batch_size=2, backend="meta")
        assert cold.stats["captures"] == 0 and cold.stats["misses"] == 0

    def test_prefetch_with_explicit_keys(self, tmp_path):
        seeder = TraceStore(tmp_path)
        seeder.get_or_capture("avmnist", batch_size=2, backend="meta")
        cold = TraceStore(tmp_path)
        keys = [cold.make_key("avmnist", batch_size=2, backend="meta"),
                cold.make_key("avmnist", batch_size=64, backend="meta")]
        assert cold.prefetch(keys) == 1  # the batch-64 trace was never stored
        assert cold.stats["misses"] == 1

    def test_entries_lists_live_and_stale(self, tmp_path):
        store = TraceStore(tmp_path)
        entry = store.get_or_capture("avmnist", batch_size=2, backend="meta")
        store.put(stale_key(store, workload="avmnist", batch_size=2,
                            backend="meta"), entry)
        infos = store.entries()
        assert sorted(i["stale"] for i in infos) == [False, True]
        assert all(i["status"] == "ok" for i in infos)
        assert all(i["n"] == entry.trace.columns().n for i in infos)

    def test_gc_removes_stale_corrupt_and_torn(self, tmp_path):
        store = TraceStore(tmp_path)
        entry = store.get_or_capture("avmnist", batch_size=2, backend="meta")
        # A stale entry (written under another code fingerprint).
        store.put(stale_key(store, workload="avmnist", batch_size=2,
                            backend="meta"), entry)
        (tmp_path / "leftover.tmp").write_bytes(b"torn write")
        (tmp_path / ("b" * 64 + ".mmt")).write_bytes(b"garbage")

        removed = store.gc()
        assert removed == {"corrupt": 0, "tmp": 1, "stale": 1, "unreadable": 1}
        # The live entry survives and still warm-hits.
        fresh = TraceStore(tmp_path)
        fresh.get_or_capture("avmnist", batch_size=2, backend="meta")
        assert fresh.stats["disk_hits"] == 1 and fresh.stats["captures"] == 0

    def test_gc_keep_stale(self, tmp_path):
        store = TraceStore(tmp_path)
        entry = store.get_or_capture("avmnist", batch_size=2, backend="meta")
        key = stale_key(store, workload="avmnist", batch_size=2, backend="meta")
        store.put(key, entry)
        removed = store.gc(stale=False)
        assert removed["stale"] == 0
        assert (tmp_path / f"{key.digest()}.mmt").exists()

    def test_gc_drops_sidecar_when_no_binary_entries_remain(self, tmp_path):
        store = TraceStore(tmp_path)
        store.get_or_capture("avmnist", batch_size=2, backend="meta")
        next(tmp_path.glob("*.mmt")).write_bytes(b"garbage")
        store.gc()
        assert not (tmp_path / TraceStore.INTERNING_SIDECAR).exists()
        # And the store still works from scratch afterwards.
        store.clear()
        out = store.get_or_capture("avmnist", batch_size=2, backend="meta")
        assert out.trace.total_flops > 0


def _hammer_puts(cache_dir: str, n_iters: int) -> None:
    store = TraceStore(cache_dir)
    entry = store.get_or_capture("avmnist", batch_size=3, backend="meta")
    key = store.make_key("avmnist", batch_size=3, backend="meta")
    for _ in range(n_iters):
        store.put(key, entry)


class TestConcurrentWriters:
    def test_racing_puts_never_produce_torn_reads(self, tmp_path):
        """Two processes publish the same digest while a reader maps it."""
        reference = TraceStore(tmp_path).get_or_capture(
            "avmnist", batch_size=3, backend="meta")
        expected = reference.trace.columns().flops.copy()

        ctx = multiprocessing.get_context("spawn")
        writers = [ctx.Process(target=_hammer_puts, args=(str(tmp_path), 25))
                   for _ in range(2)]
        for w in writers:
            w.start()
        corrupt_seen = 0
        try:
            for _ in range(30):
                fresh = TraceStore(tmp_path)
                loaded = fresh.get_or_capture("avmnist", batch_size=3,
                                              backend="meta")
                assert np.array_equal(loaded.trace.columns().flops, expected)
                corrupt_seen += fresh.stats["corrupt"]
        finally:
            for w in writers:
                w.join(timeout=60)
        assert all(w.exitcode == 0 for w in writers)
        assert corrupt_seen == 0
        # Final state is a clean, loadable corpus.
        final = TraceStore(tmp_path)
        out = final.get_or_capture("avmnist", batch_size=3, backend="meta")
        assert final.stats["disk_hits"] == 1 and final.stats["corrupt"] == 0
        assert np.array_equal(out.trace.columns().flops, expected)
