"""``mmbench store`` corpus subcommands: ls, stats, gc."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.cli import main
from repro.trace.store import TraceStore, set_default_store


@pytest.fixture(autouse=True)
def fresh_default_store():
    prev = set_default_store(None)
    yield
    set_default_store(prev)


@pytest.fixture
def seeded(tmp_path):
    """A cache dir with two entries (avmnist at batch 2 and batch 4)."""
    store = TraceStore(tmp_path)
    for batch_size in (2, 4):
        store.get_or_capture("avmnist", batch_size=batch_size, backend="meta")
    return tmp_path


def put_stale(cache_dir) -> str:
    """Store an entry under another code fingerprint; returns its digest."""
    store = TraceStore(cache_dir)
    entry = store.get_or_capture("avmnist", batch_size=2, backend="meta")
    key = dataclasses.replace(
        store.make_key("avmnist", batch_size=2, backend="meta"),
        code_version="0ld0ld0ld0ld")
    store.put(key, entry)
    return key.digest()


def test_store_requires_cache_dir(monkeypatch, capsys):
    monkeypatch.delenv("MMBENCH_CACHE_DIR", raising=False)
    assert main(["store", "ls"]) == 2
    assert "--cache-dir" in capsys.readouterr().err


def test_store_honors_env_cache_dir(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("MMBENCH_CACHE_DIR", str(tmp_path))
    assert main(["store", "ls"]) == 0
    assert "empty" in capsys.readouterr().out


def test_store_ls_lists_entries(seeded, capsys):
    assert main(["store", "ls", "--cache-dir", str(seeded)]) == 0
    out = capsys.readouterr().out
    assert out.count("avmnist") == 2 and "inference" in out


def test_store_ls_skips_stray_json_gz(seeded, capsys):
    digest = next(seeded.glob("*.mmt")).name.split(".", 1)[0]
    (seeded / ("a" * 64 + ".json.gz")).write_bytes(b"retired format")
    assert main(["store", "ls", "--cache-dir", str(seeded)]) == 0
    out = capsys.readouterr().out
    assert digest[:12] in out and "a" * 12 not in out


def test_store_ls_reports_malformed_header_as_corrupt(seeded, capsys):
    path = next(seeded.glob("*.mmt"))
    blob = path.read_bytes()
    header = b"[5]"  # valid JSON, but not a header object
    path.write_bytes(blob[:12] + len(header).to_bytes(4, "little") + header)
    assert main(["store", "ls", "--cache-dir", str(seeded)]) == 0
    assert "corrupt" in capsys.readouterr().out


def test_store_stats_aggregates(seeded, capsys):
    assert main(["store", "stats", "--cache-dir", str(seeded)]) == 0
    out = capsys.readouterr().out
    assert "2 entries" in out and "interned strings" in out
    assert "0 stale" in out and "0 corrupt" in out


def test_store_gc_removes_stale_and_corrupt(seeded, capsys):
    stale = put_stale(seeded)
    (seeded / "torn.tmp").write_bytes(b"x")
    assert main(["store", "gc", "--cache-dir", str(seeded)]) == 0
    out = capsys.readouterr().out
    assert "1 stale" in out and "1 torn tmp" in out
    assert not (seeded / f"{stale}.mmt").exists()
    # The live entries survive.
    assert main(["store", "ls", "--cache-dir", str(seeded)]) == 0
    assert "avmnist" in capsys.readouterr().out


def test_store_gc_keep_stale(seeded, capsys):
    stale = put_stale(seeded)
    assert main(["store", "gc", "--keep-stale", "--cache-dir", str(seeded)]) == 0
    assert "0 stale" in capsys.readouterr().out
    assert (seeded / f"{stale}.mmt").exists()
