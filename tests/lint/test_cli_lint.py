"""``mmbench lint`` / ``mmbench store lint``: exit codes, formats,
baselines, and the nine-workload clean-corpus property."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.cli import main
from repro.workloads.registry import list_workloads
from repro.lint import lint_trace
from repro.trace import binfmt
from repro.trace.store import TraceStore, set_default_store
from tests.trace.mmt_files import reseal, row_offset

FIXTURES = Path(__file__).parent.parent / "fixtures" / "execution_graphs"


@pytest.fixture(autouse=True)
def fresh_default_store(monkeypatch):
    monkeypatch.delenv("MMBENCH_CACHE_DIR", raising=False)
    prev = set_default_store(None)
    yield
    set_default_store(prev)


def fixture(name: str) -> str:
    return str(FIXTURES / f"{name}.json")


class TestLintCommand:
    def test_clean_graph_exits_zero(self, capsys):
        assert main(["lint", fixture("cnn_forward")]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_error_fixture_exits_one(self, capsys):
        assert main(["lint", fixture("cyclic")]) == 1
        assert "MMB111" in capsys.readouterr().out

    def test_warnings_pass_unless_strict(self, capsys):
        assert main(["lint", fixture("unknown_ops")]) == 0
        assert "MMB202" in capsys.readouterr().out
        assert main(["lint", "--strict", fixture("unknown_ops")]) == 1

    def test_infos_never_fail(self):
        assert main(["lint", "--strict", fixture("empty")]) == 0

    def test_json_format(self, capsys):
        assert main(["lint", "--format", "json",
                     fixture("missing_parent")]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "mmbench-lint/1"
        assert payload["counts"]["error"] >= 1
        assert any(d["code"] == "MMB111" for d in payload["diagnostics"])

    def test_many_targets_merge_into_one_report(self, capsys):
        assert main(["lint", fixture("cnn_forward"),
                     fixture("transformer_train")]) == 0
        assert "2 artifact(s)" in capsys.readouterr().out

    def test_unknown_target_exits_two(self, capsys):
        assert main(["lint", "no-such-thing"]) == 2
        assert "no-such-thing" in capsys.readouterr().err

    def test_workload_name_lints_captured_trace(self, tmp_path, capsys):
        assert main(["lint", "avmnist", "--cache-dir", str(tmp_path),
                     "--strict", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sources"] == ["workload:avmnist"]

    def test_store_digest_prefix_target(self, tmp_path, capsys):
        store = TraceStore(tmp_path)
        entry_key = store.make_key("avmnist", batch_size=2, backend="meta")
        store.get_or_capture("avmnist", batch_size=2, backend="meta")
        digest = entry_key.digest()[:10]
        assert main(["lint", digest, "--cache-dir", str(tmp_path),
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sources"] == [f"store:{digest}"]

    def test_digest_without_cache_dir_hints(self, capsys):
        assert main(["lint", "deadbeef00"]) == 2
        assert "--cache-dir" in capsys.readouterr().err


def _node(node_id, name, parents=(), **fields):
    return {"id": node_id, "name": name, "parents": list(parents), **fields}


#: Malformed graphs the static rules and the ingest behind them must read
#: without raising, with the error code and the fragment the report names.
MALFORMED_GRAPHS = {
    "number-nodes": ({"nodes": 5}, "MMB112", "'nodes' must be a list"),
    "list-id": ({"nodes": [_node([1], "relu")]}, "MMB112",
                "node #0 id must be a string or number, got [1]"),
    "object-id": ({"nodes": [_node({}, "relu")]}, "MMB112",
                  "node #0 id must be a string or number, got {}"),
    "list-parent": ({"nodes": [_node(1, "a"), _node(2, "b", [[1]])]}, "MMB111",
                    "parents that are not in the graph (first: parent [1])"),
    "object-parent": ({"nodes": [_node(1, "a"), _node(2, "b", [{}])]}, "MMB111",
                      "parents that are not in the graph (first: parent {})"),
    "number-modalities": ({"nodes": [_node(1, "relu", output_shapes=[[4]])],
                           "model": {"modalities": 5.0}}, "MMB112",
                          "model.modalities must be a list of strings"),
    "huge-flops": ({"nodes": [_node(1, "relu", flops=10**400)]}, "MMB112",
                   "non-finite or non-numeric"),
    "huge-threads": ({"nodes": [_node(1, "relu", threads=1e308,
                                      output_shapes=[[4]])]}, "MMB112",
                     "threads must be below 2**63"),
    **{f"{what}-declared-output": (
        {"nodes": [_node(1, "relu", bytes_written=10.0, output_shapes=[shape],
                         output_dtypes=[dtype])]}, "MMB112", fragment)
       for what, shape, dtype, fragment in (
           ("string-dim", ["x"], "float32", "invalid dimension 'x'"),
           ("null-dim", [None], "float32", "invalid dimension None"),
           ("infinite-dim", [float("inf")], "float32", "invalid dimension inf"))},
}


class TestMalformedGraphs:
    @pytest.fixture(params=sorted(MALFORMED_GRAPHS))
    def case(self, request, tmp_path):
        payload, code, fragment = MALFORMED_GRAPHS[request.param]
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(payload))
        return payload, str(path), code, fragment

    def test_static_rules_return_a_report(self, case):
        from repro.lint import LintReport, lint_graph

        payload = json.loads(json.dumps(case[0]))
        assert isinstance(lint_graph(payload), LintReport)

    def test_mmbench_lint_reports_an_error(self, case, capsys):
        _, path, code, fragment = case
        assert main(["lint", path]) == 1
        captured = capsys.readouterr()
        assert f"error {code}" in captured.out and fragment in captured.out
        assert "Traceback" not in captured.err

    def test_list_dtype_beside_explicit_bytes_is_not_a_crash(self, tmp_path):
        # Explicit bytes mean ingest never reads the dtypes, so the graph is
        # valid, and MMB110 must not hash the list dtype.
        from repro.lint import lint_graph

        payload = {"nodes": [_node(1, "relu", bytes_written=10.0,
                                   output_shapes=[[2]], output_dtypes=[[1]])]}
        assert lint_graph(payload).diagnostics == []
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(payload))
        assert main(["lint", str(path)]) == 0


class TestBaselineWorkflow:
    def test_write_then_suppress(self, tmp_path, capsys):
        baseline = tmp_path / "lint-baseline.json"
        # Adopt: record the unknown-op warning as accepted debt.
        assert main(["lint", fixture("unknown_ops"),
                     "--write-baseline", str(baseline)]) == 0
        assert baseline.exists()
        capsys.readouterr()
        # Ratchet: strict now passes because the finding is baselined.
        assert main(["lint", "--strict", fixture("unknown_ops"),
                     "--baseline", str(baseline)]) == 0
        assert "1 suppressed" in capsys.readouterr().out


class TestStoreLint:
    def test_store_lint_walks_every_entry(self, tmp_path, capsys):
        store = TraceStore(tmp_path)
        store.get_or_capture("avmnist", batch_size=2, backend="meta")
        store.get_or_capture("mmimdb", batch_size=2, backend="meta")
        assert main(["store", "lint", "--cache-dir", str(tmp_path),
                     "--strict"]) == 0
        assert "2 artifact(s)" in capsys.readouterr().out

    def test_store_lint_requires_cache_dir(self, capsys):
        assert main(["store", "lint"]) == 2

    @staticmethod
    def _one_entry(cache: Path) -> Path:
        TraceStore(cache).get_or_capture("avmnist", batch_size=2, backend="meta")
        [path] = cache.glob(f"*{binfmt.SUFFIX}")
        return path

    def _assert_fails_in_place(self, cache: Path, path: Path, capsys) -> None:
        before = sorted(p.name for p in cache.iterdir())
        assert main(["store", "lint", "--cache-dir", str(cache)]) == 1
        out, err = capsys.readouterr()
        assert f"skipped 1 unreadable entry: {path.name[:12]}" in err
        assert "0 artifact(s)" in out
        assert sorted(p.name for p in cache.iterdir()) == before
        assert path.exists()

    def test_entry_with_bad_codes_fails_and_keeps_its_name(self, tmp_path, capsys):
        # The header parses, so `entries()` lists it; its first kernel's
        # category code (99) is out of range under a valid crc, so it
        # cannot be read.
        path = self._one_entry(tmp_path)
        blob = bytearray(path.read_bytes())
        at = row_offset(blob, "category_codes")
        blob[at:at + 8] = (99).to_bytes(8, "little")
        path.write_bytes(reseal(blob))
        self._assert_fails_in_place(tmp_path, path, capsys)

    def test_entry_with_a_flipped_data_byte_fails_and_keeps_its_name(
            self, tmp_path, capsys):
        # `store ls` reads headers only, so it still lists the entry ok;
        # `store lint` reads it whole and the crc fails.
        path = self._one_entry(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[row_offset(blob, "flops") + 7] ^= 1 << 6
        path.write_bytes(bytes(blob))
        assert main(["store", "ls", "--cache-dir", str(tmp_path)]) == 0
        listed = capsys.readouterr().out
        assert path.name[:12] in listed and " ok " in listed
        self._assert_fails_in_place(tmp_path, path, capsys)

    def test_entry_with_bad_header_fails_and_keeps_its_name(self, tmp_path, capsys):
        path = self._one_entry(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:8] = b"NOTTRACE"
        path.write_bytes(bytes(blob))
        self._assert_fails_in_place(tmp_path, path, capsys)

    def test_clean_store_passes_with_no_skip_line(self, tmp_path, capsys):
        self._one_entry(tmp_path)
        assert main(["store", "lint", "--cache-dir", str(tmp_path),
                     "--strict"]) == 0
        out, err = capsys.readouterr()
        assert "1 artifact(s)" in out and "skipped" not in err


class TestCleanCorpus:
    """The paper's nine workloads are the lint rules' null hypothesis:
    a clean capture must produce zero findings at any severity."""

    @pytest.mark.parametrize("workload", sorted(list_workloads()))
    def test_workload_capture_lints_clean(self, workload, tmp_path):
        store = TraceStore(tmp_path)
        stored = store.get_or_capture(workload, batch_size=4, backend="meta")
        report = lint_trace(stored, source=workload)
        assert report.diagnostics == [], \
            [d.render() for d in report.diagnostics]

    def test_training_capture_lints_clean(self, tmp_path):
        store = TraceStore(tmp_path)
        stored = store.get_or_capture_training("avmnist", batch_size=4,
                                               backend="meta")
        report = lint_trace(stored, source="avmnist+train")
        assert report.diagnostics == [], \
            [d.render() for d in report.diagnostics]
